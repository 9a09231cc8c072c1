"""Offline lineage auditor: clean runs pass, corrupted traces fail loudly.

Two halves:

* clean traces — scripted runs and seeded chaos runs pass every check
  their protocol promises (the auditor's false-positive rate is zero on
  the E16 matrix by construction);
* corrupted traces — a seeded run's JSONL is surgically corrupted five
  ways, one per auditor check, and each corruption trips exactly the
  targeted check, with the report naming the violating event.
"""

import copy
import json

import pytest

from repro import FragmentedDatabase, MoveWithDataProtocol
from repro.analysis.audit import (
    ALL_CHECKS,
    RELAXED_CHECKS,
    audit_events,
    audit_trace,
    build_timeline,
    infer_protocol,
    related_txns,
    write_report,
)
from repro.analysis.nemesis import NemesisConfig, run_nemesis
from repro.cc.ops import Read, Write
from repro.obs import taxonomy


def bump(obj="x"):
    def body(_ctx):
        value = yield Read(obj)
        yield Write(obj, value + 1)

    return body


def scripted_run_events():
    """A deterministic with-data run: updates, one move, full lineage."""
    db = FragmentedDatabase(["A", "B", "C"], movement=MoveWithDataProtocol())
    db.enable_tracing()
    db.add_agent("ag", home_node="A")
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()
    for index in range(3):
        db.sim.schedule_at(
            float(index * 5),
            lambda i=index: db.submit_update(
                "ag", bump(), reads=["x"], writes=["x"], txn_id=f"T{i}"
            ),
        )
    db.sim.schedule_at(20, lambda: db.move_agent("ag", "B", transport_delay=2))
    db.sim.schedule_at(
        30,
        lambda: db.submit_update(
            "ag", bump(), reads=["x"], writes=["x"], txn_id="T3"
        ),
    )
    db.quiesce()
    return [event.as_dict() for event in db.tracer]


@pytest.fixture(scope="module")
def clean_events():
    return scripted_run_events()


class TestCleanTraces:
    def test_scripted_run_passes_all_checks(self, clean_events):
        report = audit_events(clean_events, protocol="with-data")
        assert report.ok
        assert report.first_violation() is None
        assert report.installs > 0
        for name in ALL_CHECKS:
            assert report.checks[name].checked  # nothing relaxed
            assert report.checks[name].ok

    def test_report_dict_is_json_serializable(self, clean_events):
        report = audit_events(clean_events, protocol="with-data")
        payload = report.as_dict()
        json.dumps(payload)
        assert payload["ok"] is True
        assert set(payload["checks"]) == set(ALL_CHECKS)

    def test_relaxed_protocols_skip_order_checks(self, clean_events):
        report = audit_events(clean_events, protocol="none")
        assert not report.checks["fifo_order"].checked
        assert not report.checks["agreement"].checked
        assert report.checks["exactly_once"].checked

    def test_missing_catalog_skips_initiation(self, clean_events):
        stripped = [
            e for e in clean_events if e["type"] != taxonomy.SYSTEM_CATALOG
        ]
        report = audit_events(stripped, protocol="with-data")
        assert not report.checks["initiation"].checked
        assert "catalog" in report.checks["initiation"].reason


class TestChaosSweepAudit:
    """Exactly-once (and every promised check) holds across the seeded
    chaos matrix: run_nemesis audits its own ring trace after
    quiescence, so respects_guarantees covers the lineage audit."""

    @pytest.mark.parametrize(
        "protocol", ["none", "majority", "with-data", "with-seqno",
                     "corrective"]
    )
    def test_seed_sweep_audits_clean(self, protocol):
        config = NemesisConfig(
            n_updates=10,
            horizon=150.0,
            loss_rate=0.15,
            dup_rate=0.05,
            jitter=2.0,
            n_flaps=1,
            n_partitions=1,
        )
        for seed in range(2):
            result = run_nemesis(seed, protocol, config)
            assert result.audit_ok, (
                f"{protocol}@{seed}: {result.audit_first}"
            )
            assert result.audit_violations == 0
            assert result.respects_guarantees()


def _first_of(events, etype, **match):
    for index, event in enumerate(events):
        if event["type"] != etype:
            continue
        if all(event.get(key) == value for key, value in match.items()):
            return index
    raise AssertionError(f"no {etype} event matching {match}")


class TestCorruptedTraces:
    """Each corruption trips exactly its targeted check."""

    def corrupt_and_audit(self, clean_events, corrupt, protocol="with-data"):
        events = copy.deepcopy(clean_events)
        corrupt(events)
        return audit_events(events, protocol=protocol)

    def assert_only(self, report, check_name):
        assert not report.ok
        assert not report.checks[check_name].ok, check_name
        for other in ALL_CHECKS:
            if other != check_name:
                assert report.checks[other].ok, (
                    f"{other} fired too: "
                    f"{report.checks[other].violations}"
                )

    def test_double_install_trips_exactly_once(self, clean_events):
        def corrupt(events):
            index = _first_of(events, taxonomy.QT_INSTALL)
            events.append(copy.deepcopy(events[index]))

        # Audit under a protocol whose order checks are relaxed: a
        # replayed install also lands at a stale stream slot, so under
        # full strictness fifo_order would fire as collateral.
        report = self.corrupt_and_audit(clean_events, corrupt,
                                        protocol="corrective")
        self.assert_only(report, "exactly_once")
        first = report.first_violation()
        assert first.check == "exactly_once"
        assert first.event["type"] == taxonomy.QT_INSTALL
        assert "installed twice" in first.message

    def test_reordered_installs_trip_fifo(self, clean_events):
        def corrupt(events):
            # Swap two installs at one node: slots regress in between.
            i = _first_of(events, taxonomy.QT_INSTALL, source_txn="T0",
                          node="C")
            j = _first_of(events, taxonomy.QT_INSTALL, source_txn="T1",
                          node="C")
            events[i], events[j] = events[j], events[i]

        report = self.corrupt_and_audit(clean_events, corrupt)
        assert not report.checks["fifo_order"].ok
        first = report.checks["fifo_order"].violations[0]
        assert first.event["node"] == "C"
        # Order is per-node: the other replicas' checks are untouched.
        assert report.checks["exactly_once"].ok
        assert report.checks["token_uniqueness"].ok

    def test_foreign_commit_trips_initiation(self, clean_events):
        def corrupt(events):
            index = _first_of(events, taxonomy.LINEAGE_COMMIT, txn="T1")
            events[index]["node"] = "C"  # not the agent's home

        report = self.corrupt_and_audit(clean_events, corrupt)
        assert not report.checks["initiation"].ok
        first = report.checks["initiation"].violations[0]
        assert "home" in first.message
        assert first.event["txn"] == "T1"

    def test_foreign_object_trips_initiation(self, clean_events):
        def corrupt(events):
            index = _first_of(events, taxonomy.LINEAGE_COMMIT, txn="T0")
            events[index]["objects"] = ["x", "zz-not-in-F"]

        report = self.corrupt_and_audit(clean_events, corrupt)
        assert not report.checks["initiation"].ok
        assert "not in fragment" in (
            report.checks["initiation"].violations[0].message
        )

    def test_double_depart_trips_token_uniqueness(self, clean_events):
        def corrupt(events):
            index = _first_of(events, taxonomy.TOKEN_MOVE_DEPART)
            events.insert(index + 1, copy.deepcopy(events[index]))

        report = self.corrupt_and_audit(clean_events, corrupt)
        assert not report.checks["token_uniqueness"].ok
        assert "in transit" in (
            report.checks["token_uniqueness"].violations[0].message
        )

    def test_commit_in_transit_trips_token_uniqueness(self, clean_events):
        def corrupt(events):
            commit = _first_of(events, taxonomy.LINEAGE_COMMIT, txn="T0")
            moved = events.pop(commit)
            depart = _first_of(events, taxonomy.TOKEN_MOVE_DEPART)
            events.insert(depart + 1, moved)

        report = self.corrupt_and_audit(clean_events, corrupt)
        assert not report.checks["token_uniqueness"].ok
        assert "in transit" in (
            report.checks["token_uniqueness"].violations[0].message
        )

    def test_slot_conflict_trips_agreement(self, clean_events):
        def corrupt(events):
            # Node C claims T1 occupied T0's stream slot: same slots,
            # swapped transactions — order stays monotone, so only the
            # cross-node agreement check can catch it.
            i = _first_of(events, taxonomy.QT_INSTALL, source_txn="T0",
                          node="C")
            j = _first_of(events, taxonomy.QT_INSTALL, source_txn="T1",
                          node="C")
            events[i]["source_txn"], events[j]["source_txn"] = (
                events[j]["source_txn"],
                events[i]["source_txn"],
            )

        report = self.corrupt_and_audit(clean_events, corrupt)
        self.assert_only(report, "agreement")
        first = report.checks["agreement"].violations[0]
        assert "slot" in first.message or "disagree" in first.message

    def test_install_outside_replica_set_trips_replication(
        self, clean_events
    ):
        def corrupt(events):
            # The catalog claims F lives on A and B only; the trace's
            # installs at C are now replication-discipline violations.
            index = _first_of(events, taxonomy.SYSTEM_CATALOG)
            events[index]["fragments"]["F"]["replicas"] = ["A", "B"]

        report = self.corrupt_and_audit(clean_events, corrupt)
        assert not report.checks["replication"].ok
        first = report.checks["replication"].violations[0]
        assert "outside its replica set" in first.message
        assert first.event["node"] == "C"
        # The other per-node checks still hold at C — FIFO order and
        # slot agreement are about *how* installs happened, replication
        # about *where*.
        assert report.checks["fifo_order"].ok
        assert report.checks["agreement"].ok

    def test_catalog_without_replicas_skips_replication_check(
        self, clean_events
    ):
        def corrupt(events):
            # A trace recorded by an older release: no replica-set info.
            index = _first_of(events, taxonomy.SYSTEM_CATALOG)
            for spec in events[index]["fragments"].values():
                spec.pop("replicas", None)

        events = copy.deepcopy(clean_events)
        corrupt(events)
        report = audit_events(events, protocol="with-data")
        assert report.ok
        assert not report.checks["replication"].checked
        assert "replica-set" in report.checks["replication"].reason


class TestTraceFileRoundTrip:
    def test_audit_trace_groups_by_run(self, tmp_path, clean_events):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for event in clean_events:
                handle.write(
                    json.dumps({**event, "run": "with-data@0"},
                               default=str) + "\n"
                )
        reports = audit_trace(str(path))
        assert set(reports) == {"with-data@0"}
        report = reports["with-data@0"]
        assert report.protocol == "with-data"  # inferred from the label
        assert report.ok

    def test_write_report_json(self, tmp_path, clean_events):
        report = audit_events(clean_events, protocol="with-data",
                              run="with-data@0")
        out = tmp_path / "report.json"
        write_report(str(out), {"with-data@0": report})
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["runs"]["with-data@0"]["installs"] == report.installs

    def test_infer_protocol(self):
        assert infer_protocol("corrective@3") == "corrective"
        assert infer_protocol("with-data@17") == "with-data"
        assert infer_protocol("fa-unrestricted@0") is None
        assert infer_protocol("") is None

    def test_relaxation_table_never_relaxes_identity_checks(self):
        for relaxed in RELAXED_CHECKS.values():
            assert "exactly_once" not in relaxed
            assert "initiation" not in relaxed
            assert "token_uniqueness" not in relaxed


class TestTimeline:
    def test_timeline_orders_one_transaction(self, clean_events):
        timeline = build_timeline(clean_events, "T0")
        assert timeline, "T0 left a trail"
        types = [event["type"] for event in timeline]
        assert types.index(taxonomy.LINEAGE_COMMIT) < types.index(
            taxonomy.QT_INSTALL
        )
        for event in timeline:
            mentioned = (
                event.get("txn"),
                event.get("source_txn"),
                *(event.get("txns") or ()),
            )
            assert "T0" in mentioned

    def test_related_txns_walks_parent_links(self):
        events = [
            {"type": "span.begin", "txn": "rp:T1", "parent": "T1"},
            {"type": "span.begin", "txn": "T2"},
        ]
        assert related_txns(events, "T1") == {"T1", "rp:T1"}
        assert related_txns(events, "rp:T1") == {"T1", "rp:T1"}
        assert related_txns(events, "T2") == {"T2"}


class TestAvailabilityCheck:
    """The 8th check: blocked submissions must fall inside accounted
    windows (see repro.obs.availability)."""

    def catalog_event(self):
        return {
            "type": taxonomy.SYSTEM_CATALOG,
            "t": 0.0,
            "fragments": {
                "F": {
                    "agent": "ag",
                    "objects": ["x"],
                    "replicas": ["A", "B", "C"],
                }
            },
            "agents": {"ag": "A"},
            "nodes": ["A", "B", "C"],
        }

    def blocked_reject(
        self, t, reason="agent home 'A' is down", cause="home_down"
    ):
        return {
            "type": taxonomy.TXN_REJECT,
            "t": t,
            "txn": "T1",
            "agent": "ag",
            "reason": reason,
            "cause": cause,
        }

    def test_blocked_reject_inside_window_passes(self):
        report = audit_events(
            [
                self.catalog_event(),
                {"type": taxonomy.NODE_CRASH, "t": 10.0, "node": "A"},
                self.blocked_reject(12.0),
                {"type": taxonomy.NODE_RECOVER, "t": 30.0, "node": "A"},
            ]
        )
        check = report.checks["availability"]
        assert check.checked
        assert check.violations == []

    def test_transit_reject_inside_window_passes(self):
        report = audit_events(
            [
                self.catalog_event(),
                {"type": taxonomy.TOKEN_MOVE_DEPART, "t": 5.0, "agent": "ag",
                 "src": "A", "dst": "B", "fragments": ["F"]},
                self.blocked_reject(
                    6.0,
                    reason="token for 'F' is in transit",
                    cause="token_in_transit",
                ),
                {"type": taxonomy.TOKEN_MOVE_ARRIVE, "t": 8.0, "agent": "ag",
                 "src": "A", "dst": "B", "fragments": ["F"]},
            ]
        )
        check = report.checks["availability"]
        assert check.checked
        assert check.violations == []

    def test_blocked_reject_without_outage_is_a_violation(self):
        report = audit_events(
            [self.catalog_event(), self.blocked_reject(12.0)]
        )
        check = report.checks["availability"]
        assert check.checked
        assert len(check.violations) == 1
        assert "no open write-unavailability window" in check.violations[0].message

    def test_ordinary_reject_is_ignored(self):
        report = audit_events(
            [
                self.catalog_event(),
                self.blocked_reject(
                    12.0, reason="duplicate txn id", cause=None
                ),
            ]
        )
        assert report.checks["availability"].violations == []

    def test_reason_text_is_display_only(self):
        """The auditor branches on ``cause``; rewording ``reason`` (or
        making it look like an outage) changes nothing."""
        reworded = self.blocked_reject(12.0, reason="try again shortly")
        report = audit_events([self.catalog_event(), reworded])
        assert len(report.checks["availability"].violations) == 1
        lookalike = self.blocked_reject(
            12.0, reason="agent home 'A' is down", cause=None
        )
        report = audit_events([self.catalog_event(), lookalike])
        assert report.checks["availability"].violations == []

    def test_no_catalog_disables_the_check(self):
        report = audit_events([self.blocked_reject(12.0)])
        check = report.checks["availability"]
        assert not check.checked
        assert check.reason == "no system.catalog event in trace"
        assert report.ok  # skipped, not failed
