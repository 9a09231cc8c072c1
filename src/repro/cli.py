"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro spectrum            # E1: the Figure 1.1 table
    python -m repro spectrum --seed 42 --duration 200
    python -m repro spectrum --trace out.jsonl
    python -m repro sweep               # E9: availability vs duration
    python -m repro theorem --runs 50   # E8: randomized theorem check
    python -m repro scenario            # E2/E3: the Section 1-2 banking story
    python -m repro metrics             # metrics snapshot of an E1-style run
    python -m repro metrics --summarize out.jsonl
    python -m repro spectrum --loss-rate 0.1 --jitter 2   # lossy substrate
    python -m repro chaos --seeds 10    # E16: seeded nemesis sweep
    python -m repro chaos --crashes 2 --checkpoint-every 8  # + recovery armed
    python -m repro checkpoint          # E17: full vs delta vs snapshot rejoin
    python -m repro audit out.jsonl     # offline lineage audit of a trace
    python -m repro timeline out.jsonl --txn T3   # one txn's causal story
    python -m repro metrics --watch 10 --timeline-out tl.jsonl
    python -m repro dashboard out.jsonl --timeline tl.jsonl --html dash.html
    python -m repro dashboard out.jsonl --serve   # live-reloading server
    python -m repro experiment E19 --check   # E18-E21: run, print, gate
    python -m repro experiment E18 --json BENCH_scale.json   # regenerate
    python -m repro serve               # asyncio backend behind HTTP
    python -m repro chaos --backend=asyncio --seeds 2   # on real sockets
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.nemesis import (
    PROTOCOLS,
    RUNNABLE,
    NemesisConfig,
    run_nemesis,
)
from repro.analysis.report import (
    format_metrics_snapshot,
    format_table,
    format_trace_summary,
)
from repro.analysis.spectrum import (
    SPECTRUM_HEADERS,
    SpectrumConfig,
    run_fragments_agents,
    run_mutual_exclusion,
    run_optimistic,
    run_spectrum,
)
from repro.analysis.theorem import run_random_workload
from repro.core.control.acyclic import AcyclicReadsStrategy
from repro.core.control.read_locks import ReadLocksStrategy
from repro.core.control.unrestricted import UnrestrictedReadsStrategy
from repro.errors import DesignError


def _config_from_args(args: argparse.Namespace) -> SpectrumConfig:
    duration = getattr(args, "duration", None)
    kwargs = {"seed": args.seed}
    if duration is not None:
        kwargs["partition_start"] = 60.0
        kwargs["partition_end"] = 60.0 + max(duration, 0.001)
    batch_size = getattr(args, "batch_size", None)
    if batch_size is not None:
        kwargs["batch_size"] = batch_size
    batch_window = getattr(args, "batch_window", None)
    if batch_window is not None:
        kwargs["batch_window"] = batch_window
    kwargs.update(_fault_kwargs(args))
    return SpectrumConfig(**kwargs)


def _fault_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {}
    for name in ("loss_rate", "dup_rate", "jitter"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    return kwargs


def _add_batching_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="group up to N quasi-transactions per broadcast (default 1)",
    )
    parser.add_argument(
        "--batch-window", type=float, default=None, metavar="TICKS",
        help="flush a partial batch after this many simulated ticks",
    )


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--loss-rate", type=float, default=None, metavar="P",
        dest="loss_rate",
        help="drop each message with probability P (enables the "
        "ack/retransmit delivery layer)",
    )
    parser.add_argument(
        "--dup-rate", type=float, default=None, metavar="P",
        dest="dup_rate",
        help="duplicate each delivered message with probability P",
    )
    parser.add_argument(
        "--jitter", type=float, default=None, metavar="TICKS",
        help="add uniform random extra latency in [0, TICKS] per message",
    )


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows = run_spectrum(config, trace_path=args.trace)
    print(
        format_table(
            SPECTRUM_HEADERS,
            [row.as_tuple() for row in rows],
            title=(
                f"Figure 1.1 spectrum (seed {config.seed}, partition "
                f"{config.partition_start}-{config.partition_end})"
            ),
        )
    )
    if args.trace:
        print(f"\ntrace written to {args.trace}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    durations = [0.0, 100.0, 200.0, 300.0, 400.0, 480.0]
    if args.trace:
        open(args.trace, "w", encoding="utf-8").close()  # truncate
    rows = []
    for duration in durations:
        config = SpectrumConfig(
            partition_start=60.0,
            partition_end=60.0 + max(duration, 0.001),
            seed=args.seed,
            **_fault_kwargs(args),
        )
        rows.append(
            [
                duration,
                run_mutual_exclusion(config).availability,
                run_fragments_agents(
                    config,
                    ReadLocksStrategy(lock_timeout=60.0, retry_interval=2.0),
                    f"fa-read-locks@{duration:g}",
                    view_mode="own",
                    trace_path=args.trace,
                ).availability,
                run_fragments_agents(
                    config, AcyclicReadsStrategy(), f"fa-acyclic@{duration:g}",
                    view_mode="none",
                    trace_path=args.trace,
                ).availability,
                run_fragments_agents(
                    config,
                    UnrestrictedReadsStrategy(),
                    f"fa-unrestricted@{duration:g}",
                    view_mode="own",
                    trace_path=args.trace,
                ).availability,
                run_optimistic(config).availability,
            ]
        )
    print(
        format_table(
            ["duration", "mutual-excl", "read-locks", "acyclic",
             "unrestricted", "optimistic"],
            rows,
            title="availability vs partition duration (E9)",
        )
    )
    if args.trace:
        print(f"\ntrace written to {args.trace}")
    return 0


def cmd_theorem(args: argparse.Namespace) -> int:
    rows = []
    for label, acyclic in (("forests", True), ("cyclic", False)):
        violations = sum(
            not run_random_workload(seed, acyclic=acyclic).globally_serializable
            for seed in range(args.runs)
        )
        rows.append([label, args.runs, violations])
    print(
        format_table(
            ["read-access graphs", "runs", "GS violations"],
            rows,
            title="Section 4.2 theorem, randomized (E8)",
        )
    )
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro import FragmentedDatabase
    from repro.workloads import BankingWorkload

    db = FragmentedDatabase(["A", "B"])
    if args.trace:
        db.enable_tracing(args.trace, context={"run": "scenario"})
    bank = BankingWorkload(
        db,
        accounts={"00001": 300.0},
        central_node="A",
        owners={"00001": [("alice", "A"), ("bob", "B")]},
        view_mode="balance",
    )
    db.finalize()
    db.partitions.partition_now([["A"], ["B"]])
    at_a = bank.withdraw("00001", args.amount, owner=0)
    at_b = bank.withdraw("00001", args.amount, owner=1)
    db.run(until=20)
    db.partitions.heal_now()
    db.quiesce()
    print(
        format_table(
            ["measure", "value"],
            [
                ["withdrawal at A", at_a.result[0]],
                ["withdrawal at B", at_b.result[0]],
                ["final balance", bank.balance_at("00001", "A")],
                ["overdraft letters", len(bank.stats.letters)],
                ["mutually consistent", db.mutual_consistency().consistent],
                ["fragmentwise", db.fragmentwise_serializability().ok],
            ],
            title=(
                f"Section 2 banking scenario: two ${args.amount:.0f} "
                f"withdrawals on a $300 joint account during a partition"
            ),
        )
    )
    if args.trace:
        db.tracer.close()
        print(f"\ntrace written to {args.trace}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    config = NemesisConfig(
        loss_rate=args.loss_rate if args.loss_rate is not None else 0.15,
        dup_rate=args.dup_rate if args.dup_rate is not None else 0.05,
        # Real sockets supply their own latency: an unset --jitter is 0
        # there, and an explicit one is refused by the database.
        jitter=(
            args.jitter if args.jitter is not None
            else 0.0 if args.backend == "asyncio" else 2.0
        ),
        n_bursts=args.bursts,
        n_flaps=args.flaps,
        n_crashes=args.crashes,
        n_partitions=args.partitions,
        checkpoint_every=args.checkpoint_every,
        recovery_grace=args.recovery_grace,
        replication_factor=args.replication_factor,
        n_quorum_reads=args.quorum_reads,
        n_agent_kills=args.kill_agent,
        failover=args.failover,
    )
    protocols = [args.protocol] if args.protocol else list(PROTOCOLS)
    seeds = (
        range(args.seed, args.seed + args.seeds)
        if args.seeds
        else [args.seed]
    )
    backend = " --backend=asyncio" if args.backend == "asyncio" else ""
    if args.trace:
        open(args.trace, "w", encoding="utf-8").close()  # truncate
    rows = []
    violations = []
    for protocol in protocols:
        for seed in seeds:
            try:
                result = run_nemesis(
                    seed, protocol, config, trace_path=args.trace,
                    backend=args.backend,
                )
            except DesignError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            except Exception as exc:  # noqa: BLE001 - a row, not an abort
                print(f"{protocol}@{seed}: raised", file=sys.stderr)
                traceback.print_exc()
                violations.append((protocol, seed))
                rows.append(
                    [protocol, seed, *["-"] * 12,
                     f"VIOLATION ({type(exc).__name__}: {exc})"]
                )
                continue
            ok = result.respects_guarantees()
            if not ok:
                violations.append((protocol, seed))
            causes = result.unavailability_causes or {}
            rows.append(
                [
                    protocol,
                    seed,
                    f"{result.committed}/{result.submitted}",
                    result.drops,
                    result.dups,
                    result.retransmits,
                    result.dups_dropped,
                    result.exhausted,
                    round(result.converge_time, 1),
                    f"{result.write_availability * 100:.1f}%",
                    round(result.worst_window, 1),
                    result.mutually_consistent,
                    result.fragmentwise,
                    "ok" if result.audit_ok
                    else f"FAIL:{result.audit_violations}",
                    "OK" if ok else "VIOLATION",
                ]
            )
            if not result.audit_ok:
                print(
                    f"{protocol}@{seed}: audit: {result.audit_first}",
                    file=sys.stderr,
                )
            if config.failover and causes:
                worst = max(causes.items(), key=lambda item: item[1])
                print(
                    f"{protocol}@{seed}: unavailability by cause: "
                    + " ".join(
                        f"{cause}={held:.1f}"
                        for cause, held in sorted(causes.items())
                    )
                    + f" (dominant: {worst[0]}; failovers="
                    f"{result.failovers}, blocked={result.updates_blocked})"
                )
    print(
        format_table(
            ["protocol", "seed", "committed", "drops", "dups", "retrans",
             "dedup", "exhausted", "converge", "avail", "worst-win",
             "MC", "FW", "audit", "verdict"],
            rows,
            title=(
                f"chaos nemesis{backend} (loss={config.loss_rate}, "
                f"dup={config.dup_rate}, jitter={config.jitter}, "
                f"bursts={config.n_bursts}, flaps={config.n_flaps}, "
                f"crashes={config.n_crashes}, "
                f"partitions={config.n_partitions})"
            ),
        )
    )
    if args.trace:
        print(f"\ntrace written to {args.trace}")
    if violations:
        print(
            f"\n{len(violations)} guarantee violation(s): {violations}",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(rows)} runs respected the Section 4.4 guarantees")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the asyncio backend and serve it over HTTP until Ctrl-C."""
    from repro.availability import AvailabilityConfig
    from repro.core.system import FragmentedDatabase
    from repro.serve import FrontDoor

    names = [f"N{i}" for i in range(args.nodes)]
    db = FragmentedDatabase(
        names,
        runtime="asyncio",
        tick=args.tick,
        replication_factor=args.factor,
        availability=AvailabilityConfig(),
    )
    for i in range(args.fragments):
        db.add_agent(f"ag{i}", home_node=names[i % args.nodes])
        db.add_fragment(f"F{i}", agent=f"ag{i}", objects=[f"x{i}"])
    db.load({f"x{i}": 0 for i in range(args.fragments)})
    db.finalize()
    db.enable_tracing(path=args.trace)
    db.start_runtime()
    db.call_on_runtime(lambda: db.availability.start(until=10_000_000.0))
    door = FrontDoor(db, host=args.host, port=args.port).start()
    print(f"serving {args.nodes} nodes / {args.fragments} fragments "
          f"(k={args.factor}, asyncio backend) on {door.url}")
    print(f"  POST {door.url}/updates   " + '{"object": "x0", "delta": 1}')
    print(f"  POST {door.url}/reads     " + '{"object": "x0", "at": "N4"}')
    print(f"  GET  {door.url}/          live dashboard "
          "(/fragments /updates /metrics /healthz)")
    print("Ctrl-C to stop")
    try:
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        door.stop()
        db.tracer.close()
        db.stop_runtime()
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.recovery_bench import MODES, run_rejoin_comparison

    results = run_rejoin_comparison(
        seed=args.seed,
        n_updates=args.updates,
        checkpoint_every=args.every,
        grace=args.grace,
    )
    rows = []
    for mode in MODES:
        result = results[mode]
        rows.append(
            [
                mode,
                result.committed,
                result.wal_replayed,
                result.checkpoints,
                result.archive_pruned,
                result.delta_qts_shipped,
                result.checkpoints_shipped,
                result.bytes_shipped,
                result.retained_bytes,
                round(result.rejoin_ticks, 1),
                result.consistent,
                "ok" if result.audit_ok else "FAIL",
            ]
        )
    print(
        format_table(
            ["mode", "committed", "wal-replay", "ckpts", "pruned",
             "delta-qts", "snaps", "bytes-shipped", "retained-bytes",
             "rejoin", "MC", "audit"],
            rows,
            title=(
                f"checkpoint & rejoin benchmark (E17, seed {args.seed}, "
                f"{args.updates} updates, every={args.every}, "
                f"grace={args.grace:g})"
            ),
        )
    )
    if args.json:
        payload = {mode: results[mode].as_dict() for mode in MODES}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nresults written to {args.json}")
    broken = [
        mode
        for mode in MODES
        if not (results[mode].consistent and results[mode].audit_ok)
    ]
    if broken:
        print(f"\nmode(s) broke consistency or audit: {broken}",
              file=sys.stderr)
        return 1
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis.audit import ALL_CHECKS, audit_trace, write_report

    try:
        reports = audit_trace(args.trace_file, protocol=args.protocol)
    except OSError as exc:
        print(f"error: cannot read trace {args.trace_file}: {exc}",
              file=sys.stderr)
        return 1
    if not reports:
        print(f"error: no events in {args.trace_file}", file=sys.stderr)
        return 1
    rows = []
    for run, report in reports.items():
        row = [run or "-", report.protocol or "?", report.events,
               report.installs]
        for name in ALL_CHECKS:
            check = report.checks[name]
            if not check.checked:
                row.append("relaxed")
            elif check.ok:
                row.append("ok")
            else:
                row.append(f"FAIL:{check.violation_count}")
        row.append("OK" if report.ok else "VIOLATION")
        rows.append(row)
    print(
        format_table(
            ["run", "protocol", "events", "installs",
             *[name.replace("_", "-") for name in ALL_CHECKS], "verdict"],
            rows,
            title=f"lineage audit: {args.trace_file}",
        )
    )
    failed = {run: rep for run, rep in reports.items() if not rep.ok}
    for run, report in failed.items():
        first = report.first_violation()
        print(f"\n{run or '-'}: first violation [{first.check}] "
              f"{first.message}", file=sys.stderr)
        print(f"  event: {first.event}", file=sys.stderr)
    if args.report:
        write_report(args.report, reports)
        print(f"\naudit report written to {args.report}")
    if failed:
        print(f"\n{len(failed)} run(s) failed the audit", file=sys.stderr)
        return 1
    print(f"\nall {len(reports)} run(s) passed the audit")
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.audit import timeline_from_trace

    try:
        events = timeline_from_trace(args.trace_file, args.txn, run=args.run)
    except OSError as exc:
        print(f"error: cannot read trace {args.trace_file}: {exc}",
              file=sys.stderr)
        return 1
    if not events:
        print(f"no events mention transaction {args.txn!r}", file=sys.stderr)
        return 1
    rows = []
    for event in events:
        fields = {
            key: value
            for key, value in event.items()
            if key not in ("t", "type", "run")
        }
        where = (
            fields.pop("node", None)
            or fields.pop("receiver", None)
            or fields.pop("origin", None)
            or fields.pop("src", "-")
        )
        detail = " ".join(f"{key}={value}" for key, value in fields.items())
        rows.append([f"{event.get('t', 0.0):.2f}", event.get("type", "?"),
                     where, detail])
    print(
        format_table(
            ["t", "event", "where", "detail"],
            rows,
            title=f"timeline of {args.txn} ({len(events)} events)",
        )
    )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.summary import summarize_trace

    if args.summarize:
        try:
            summary = summarize_trace(args.summarize)
        except OSError as exc:
            print(f"error: cannot read trace {args.summarize}: {exc}",
                  file=sys.stderr)
            return 1
        print(format_trace_summary(summary))
        return 0

    config = _config_from_args(args)
    if args.trace:
        open(args.trace, "w", encoding="utf-8").close()  # truncate
    db_box: list = []
    on_db = None
    if args.watch is not None:
        if args.watch <= 0:
            print("error: --watch interval must be positive", file=sys.stderr)
            return 1
        from repro.obs.timeline import TimelineSampler

        def on_db(db, tick=args.watch):
            sampler = TimelineSampler(db.metrics, tick=tick)
            sampler.start(db.sim, until=config.partition_end + 200.0)

    row = run_fragments_agents(
        config,
        UnrestrictedReadsStrategy(),
        "fa-unrestricted",
        view_mode="own",
        trace_path=args.trace,
        db_sink=db_box,
        on_db=on_db,
    )
    db = db_box[0]
    if args.watch is not None:
        _print_watch(db.metrics.timeline)
    print(
        format_metrics_snapshot(
            db.snapshot(),
            title=(
                f"metrics snapshot: fa-unrestricted E1 run "
                f"(seed {config.seed}, availability "
                f"{row.availability:.3f})"
            ),
        )
    )
    if args.timeline_out:
        written = (
            db.metrics.timeline.dump_jsonl(args.timeline_out)
            if db.metrics.timeline is not None
            else 0
        )
        print(f"\n{written} timeline records written to {args.timeline_out}")
    if args.trace:
        print()
        print(format_trace_summary(summarize_trace(args.trace)))
    return 0


def _print_watch(sampler) -> int:
    """Per-tick counter-delta blocks from a finished timeline sampler.

    The run executes at simulation speed (instantly), so "watch" output
    is the per-interval view printed in order after the fact — the same
    records a live wall-clock watcher would have seen tick by tick.
    """
    if sampler is None or not sampler.samples_taken:
        print("(no timeline samples taken)")
        return 0
    names = sampler.series_names()["counters"]
    ticks: dict[float, list[tuple[str, int, int]]] = {}
    for name in names:
        for t, value, delta in sampler.counter_series(name):
            if delta:
                ticks.setdefault(t, []).append((name, value, delta))
    for t in sorted(ticks):
        print(f"t={t:g}")
        for name, value, delta in ticks[t]:
            print(f"  {name:<44} {value:>8}  (+{delta})")
    print(
        f"({sampler.samples_taken} samples, "
        f"{len(ticks)} with counter activity)\n"
    )
    return len(ticks)


def cmd_experiment(args: argparse.Namespace) -> int:
    check = args.check
    if check == "":  # bare --check: the experiment's committed record
        check = EXPERIMENTS[args.key].record
    return run_experiment(args.key, check=check, json_out=args.json)


def cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import dashboard_from_trace, serve_dashboard

    if not args.html and not args.serve:
        print("error: pick --html FILE or --serve", file=sys.stderr)
        return 1
    if args.html:
        try:
            page = dashboard_from_trace(
                args.trace_file, timeline_path=args.timeline
            )
        except OSError as exc:
            print(f"error: cannot read {args.trace_file}: {exc}",
                  file=sys.stderr)
            return 1
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(page)
        print(f"dashboard written to {args.html}")
    if args.serve:
        server = serve_dashboard(
            args.trace_file,
            timeline_path=args.timeline,
            host=args.host,
            port=args.port,
        )
        print(
            f"serving dashboard for {args.trace_file} on "
            f"http://{args.host}:{args.port}/ (Ctrl-C to stop)"
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Garcia-Molina & Kogan, 'Achieving High "
            "Availability in Distributed Databases' (ICDE 1987)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace_help = "write structured trace events to this JSONL file"

    spectrum = sub.add_parser("spectrum", help="the Figure 1.1 table (E1)")
    spectrum.add_argument("--seed", type=int, default=7)
    spectrum.add_argument(
        "--duration", type=float, default=None,
        help="partition duration in ticks (default: the E1 scenario's 300)",
    )
    spectrum.add_argument("--trace", default=None, help=trace_help)
    _add_batching_args(spectrum)
    _add_fault_args(spectrum)
    spectrum.set_defaults(func=cmd_spectrum)

    sweep = sub.add_parser("sweep", help="availability vs duration (E9)")
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--trace", default=None, help=trace_help)
    _add_fault_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    chaos = sub.add_parser(
        "chaos",
        help="seeded nemesis: movement protocols under composed faults (E16)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="sweep N consecutive seeds starting at --seed",
    )
    chaos.add_argument(
        "--protocol", choices=list(RUNNABLE), default=None,
        help="run one protocol (default: the five movement protocols; "
        "fixed-agents is the one `repro serve` runs)",
    )
    chaos.add_argument(
        "--bursts", type=int, default=1, help="scheduled loss bursts"
    )
    chaos.add_argument(
        "--flaps", type=int, default=2, help="transient link flaps"
    )
    chaos.add_argument(
        "--crashes", type=int, default=1, help="crash/recover episodes"
    )
    chaos.add_argument(
        "--partitions", type=int, default=1, help="partition episodes"
    )
    chaos.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="K",
        dest="checkpoint_every",
        help="arm the recovery subsystem: checkpoint every K installs, "
        "compact logs behind the cluster watermark, delta catch-up on "
        "rejoin",
    )
    chaos.add_argument(
        "--recovery-grace", type=float, default=60.0, metavar="TICKS",
        dest="recovery_grace",
        help="how long a downed/unreachable replica pins the compaction "
        "watermark (with --checkpoint-every)",
    )
    chaos.add_argument(
        "--replication-factor", type=int, default=None, metavar="K",
        dest="replication_factor",
        help="restrict every fragment to a rendezvous-placed replica "
        "set of K nodes (default: full replication)",
    )
    chaos.add_argument(
        "--quorum-reads", type=int, default=0, metavar="N",
        dest="quorum_reads",
        help="schedule N read-only transactions at nodes outside the "
        "fragment's replica set (version-vote quorum reads)",
    )
    chaos.add_argument(
        "--kill-agent", type=int, default=0, metavar="N",
        dest="kill_agent",
        help="crash-stop the agent's current home node N times (no "
        "home-node rail; pair with --failover for bounded outages)",
    )
    chaos.add_argument(
        "--failover", action="store_true",
        help="arm the availability supervisor: heartbeat failure "
        "detection plus automatic agent failover to a live replica",
    )
    chaos.add_argument("--trace", default=None, help=trace_help)
    chaos.add_argument(
        "--backend", choices=["sim", "asyncio"], default="sim",
        help="sim: the nemesis in the simulator (default); asyncio: the "
        "same seeded workload and fault plan in real time over TCP, "
        "agent-home kills at the socket level (--jitter is "
        "simulator-only: unset means 0 there)",
    )
    _add_fault_args(chaos)
    chaos.set_defaults(func=cmd_chaos)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="checkpoint & rejoin benchmark: full replay vs checkpoint+"
        "delta vs snapshot shipping (E17)",
    )
    checkpoint.add_argument("--seed", type=int, default=7)
    checkpoint.add_argument(
        "--updates", type=int, default=60,
        help="update transactions in the workload",
    )
    checkpoint.add_argument(
        "--every", type=int, default=8,
        help="checkpoint every K installs (armed modes)",
    )
    checkpoint.add_argument(
        "--grace", type=float, default=60.0,
        help="watermark grace for the snapshot mode",
    )
    checkpoint.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the results as JSON",
    )
    checkpoint.set_defaults(func=cmd_checkpoint)

    audit = sub.add_parser(
        "audit",
        help="offline lineage audit of a JSONL trace (exactly-once, "
        "stream order, initiation, token uniqueness, agreement)",
    )
    audit.add_argument("trace_file", help="JSONL trace file to audit")
    audit.add_argument(
        "--protocol",
        choices=list(RUNNABLE),
        default=None,
        help="force the guarantee matrix of one protocol (default: infer "
        "from each run's '{protocol}@{seed}' label)",
    )
    audit.add_argument(
        "--report", default=None, metavar="FILE",
        help="also write the structured audit report as JSON",
    )
    audit.set_defaults(func=cmd_audit)

    timeline = sub.add_parser(
        "timeline",
        help="chronological lineage of one transaction from a JSONL trace",
    )
    timeline.add_argument("trace_file", help="JSONL trace file to read")
    timeline.add_argument(
        "--txn", required=True,
        help="transaction id (repackaged descendants/ancestors included)",
    )
    timeline.add_argument(
        "--run", default=None,
        help="restrict to one run label when the trace holds several",
    )
    timeline.set_defaults(func=cmd_timeline)

    theorem = sub.add_parser("theorem", help="randomized §4.2 theorem (E8)")
    theorem.add_argument("--runs", type=int, default=60)
    theorem.set_defaults(func=cmd_theorem)

    scenario = sub.add_parser(
        "scenario", help="the Section 1/2 banking walkthrough"
    )
    scenario.add_argument("--amount", type=float, default=200.0)
    scenario.add_argument("--trace", default=None, help=trace_help)
    scenario.set_defaults(func=cmd_scenario)

    metrics = sub.add_parser(
        "metrics",
        help="metrics snapshot of an E1-style run (or summarize a trace)",
    )
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument(
        "--duration", type=float, default=None,
        help="partition duration in ticks (default: the E1 scenario's 300)",
    )
    metrics.add_argument("--trace", default=None, help=trace_help)
    metrics.add_argument(
        "--summarize", default=None, metavar="TRACE",
        help="summarize an existing JSONL trace file and exit",
    )
    metrics.add_argument(
        "--watch", type=float, default=None, metavar="TICKS",
        help="sample the registry every TICKS simulated ticks and print "
        "per-interval counter deltas (the timeline sampler's view)",
    )
    metrics.add_argument(
        "--timeline-out", default=None, metavar="FILE",
        dest="timeline_out",
        help="dump the sampled timeline as JSONL (requires --watch; feed "
        "it to `repro dashboard --timeline`)",
    )
    _add_batching_args(metrics)
    _add_fault_args(metrics)
    metrics.set_defaults(func=cmd_metrics)

    dashboard = sub.add_parser(
        "dashboard",
        help="render a trace (sparklines, availability heatmap, lineage "
        "spans) as a self-contained HTML page or a live-reloading server",
    )
    dashboard.add_argument("trace_file", help="JSONL trace file to render")
    dashboard.add_argument(
        "--timeline", default=None, metavar="FILE",
        help="timeline JSONL dump (from `repro metrics --watch "
        "--timeline-out`) for real metric sparklines",
    )
    dashboard.add_argument(
        "--html", default=None, metavar="FILE",
        help="write a static self-contained HTML dashboard here",
    )
    dashboard.add_argument(
        "--serve", action="store_true",
        help="serve the dashboard over HTTP with live reload (SSE pings "
        "when the trace file grows)",
    )
    dashboard.add_argument("--host", default="127.0.0.1")
    dashboard.add_argument("--port", type=int, default=8377)
    dashboard.set_defaults(func=cmd_dashboard)

    experiment = sub.add_parser(
        "experiment",
        help="run one gated experiment at full size: E18 path-cache "
        "throughput A/B, E19 partial replication, E20 availability "
        "failover, E21 availability accounting",
    )
    experiment.add_argument("key", choices=sorted(EXPERIMENTS))
    experiment.add_argument(
        "--check", nargs="?", const="", default=None, metavar="PATH",
        help="also gate against a committed record (default: the "
        "experiment's BENCH_*.json in the current directory); exit 1 "
        "on any failed gate",
    )
    experiment.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the fresh result record here",
    )
    experiment.set_defaults(func=cmd_experiment)

    serve = sub.add_parser(
        "serve",
        help="boot the asyncio runtime backend (real TCP between nodes) "
        "and serve it over HTTP: location-transparent writes, quorum "
        "reads, live dashboard",
    )
    serve.add_argument("--nodes", type=int, default=5)
    serve.add_argument("--fragments", type=int, default=2)
    serve.add_argument(
        "--factor", type=int, default=3,
        help="replication factor for every fragment",
    )
    serve.add_argument(
        "--tick", type=float, default=0.05, metavar="SECONDS",
        help="real seconds per simulated tick (protocol timeouts scale "
        "with this; default 0.05)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8378)
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream the live trace to this JSONL file (auditable with "
        "`repro audit`)",
    )
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
