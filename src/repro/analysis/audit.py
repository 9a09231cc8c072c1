"""Offline lineage auditor: replay a trace, verify the paper's invariants.

The lineage events threaded through the update pipeline
(:mod:`repro.obs.lineage`) let an *offline* checker reconstruct the
happens-before order of every update from a JSONL trace — the
Jepsen-style counterpart of the in-process consistency checkers, with
no access to simulator state.  :func:`audit_events` replays one run's
events in emission order (the simulator is single-threaded, so file
order is causal order) and verifies:

* **exactly-once** — each transaction installs at most once per node
  (``lineage.commit`` is the install at the origin; ``qt.install`` is
  an install anywhere else);
* **fifo-order** — per node and fragment, installs occur in strictly
  increasing ``(epoch, stream_seq)`` order, i.e. each replica processes
  one fragment's stream in the order it was generated (Section 3.2);
* **initiation** — every commit is minted by the fragment's agent, at
  the agent's current home node, writing only objects that belong to
  the fragment (Section 3.1's initiation requirement), against the
  schema recorded by the ``system.catalog`` event;
* **token-uniqueness** — the move events describe a token that is in
  exactly one place at a time: departures only from the current home,
  arrivals only for an in-flight move, and no commits minted while the
  token is on the road;
* **agreement** — the fragment's replica set agrees on its install
  order: a stream slot ``(fragment, epoch, seq)`` holds the same
  transaction everywhere, and any two transactions installed by two
  nodes appear in the same relative order at both (under partial
  replication only replica-set members install, so the pairwise
  comparison is per replica set by construction);
* **replication** — installs land only at replica-set members: the
  ``system.catalog`` event records each fragment's replica set, and an
  install of the fragment at any other node is a propagation-scoping
  bug (a multicast that leaked outside the set).  The replica set is
  the one *in force at install time*: ``system.reconfig`` events move
  it forward mid-trace, so an online join/leave re-scopes the check
  from that point on.  Skipped for traces predating the catalog's
  ``replicas`` field, never silently assumed;
* **epoch-fencing** — stream epochs fence minting rights (the
  availability supervisor's failover safety argument): commits are
  never minted in an epoch older than the newest one opened for the
  fragment (a fenced-out ex-home kept writing), no two nodes mint in
  the same ``(fragment, epoch)`` without a token arrival between them
  (split brain), and membership epochs on ``system.reconfig`` events
  strictly increase per fragment;
* **availability** — the accountant's books balance against the trace:
  every blocked submission (a ``txn.reject`` carrying a ``cause``: a
  downed agent home or a token in transit) falls inside an unavailability
  window that the :class:`~repro.obs.availability.AvailabilityAccountant`
  derived from the same events — a reject with no accounted cause means
  either the submission gate fired spuriously or the accountant lost a
  window.

Not every protocol promises every invariant.  The instant-move
baseline (``none``) exists to *demonstrate* stream-order divergence,
and the corrective protocol (Section 4.4.3) trades stream order away
by design — both relax the FIFO and agreement checks (see
:data:`RELAXED_CHECKS`), so the audit documents what each protocol
actually promises rather than failing by design, mirroring the
guarantee matrix in :mod:`repro.analysis.torture`.  The identity
checks — exactly-once, initiation, token uniqueness — hold for every
protocol.

The report names the first violating event verbatim, so a failure in a
10,000-event chaos trace points at one line of JSONL instead of a
boolean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs import taxonomy
from repro.obs.availability import AvailabilityAccountant
from repro.obs.summary import read_trace

#: Check names, in report order.
ALL_CHECKS = (
    "exactly_once",
    "fifo_order",
    "initiation",
    "token_uniqueness",
    "agreement",
    "replication",
    "epoch_fencing",
    "availability",
)

#: Checks a protocol deliberately does not promise (Section 4.4 matrix).
#: ``none`` installs blindly in arrival order — stream-order divergence
#: is the bug it exists to demonstrate.  ``corrective`` forfeits
#: fragmentwise serializability: its M0 catch-up backfills missed
#: old-epoch transactions *after* a node has advanced into a newer
#: epoch, so cross-epoch install order (and hence cross-node order
#: agreement) is exactly what it trades away for availability.  The
#: identity checks (exactly-once, initiation, token-uniqueness) are
#: never relaxed — every protocol promises those.
RELAXED_CHECKS: dict[str, frozenset[str]] = {
    "none": frozenset({"fifo_order", "agreement"}),
    "corrective": frozenset({"fifo_order", "agreement"}),
}

#: Stored violations per check; further ones are counted, not kept.
MAX_VIOLATIONS_KEPT = 25

_INSTALL_TYPES = (taxonomy.LINEAGE_COMMIT, taxonomy.QT_INSTALL)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the event that revealed it."""

    check: str
    message: str
    event: dict[str, Any]

    def as_dict(self) -> dict[str, Any]:
        return {"check": self.check, "message": self.message,
                "event": self.event}


@dataclass
class CheckResult:
    """Outcome of one invariant check over one run."""

    name: str
    checked: bool = True
    reason: str | None = None  # why skipped, when not checked
    violations: list[Violation] = field(default_factory=list)
    violation_count: int = 0  # includes violations beyond the kept cap

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def add(self, message: str, event: dict[str, Any]) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_VIOLATIONS_KEPT:
            self.violations.append(Violation(self.name, message, event))

    def as_dict(self) -> dict[str, Any]:
        return {
            "checked": self.checked,
            "ok": self.ok,
            "reason": self.reason,
            "violations": [v.as_dict() for v in self.violations],
            "violation_count": self.violation_count,
        }


@dataclass
class AuditReport:
    """Structured audit verdict for one run's event stream."""

    run: str
    protocol: str | None
    events: int = 0
    installs: int = 0
    #: Informational recovery-activity counters (no invariant attached):
    #: how many durable checkpoints the run took and how many whole
    #: checkpoints catch-up donors shipped to below-horizon rejoiners.
    checkpoints: int = 0
    snapshots_shipped: int = 0
    epoch_cuts: int = 0
    reconfigurations: int = 0
    checks: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks.values())

    @property
    def violation_count(self) -> int:
        return sum(check.violation_count for check in self.checks.values())

    def first_violation(self) -> Violation | None:
        """The earliest-reported violation, or None when clean."""
        for name in ALL_CHECKS:
            check = self.checks.get(name)
            if check is not None and check.violations:
                return check.violations[0]
        return None

    def as_dict(self) -> dict[str, Any]:
        return {
            "run": self.run,
            "protocol": self.protocol,
            "ok": self.ok,
            "events": self.events,
            "installs": self.installs,
            "checkpoints": self.checkpoints,
            "snapshots_shipped": self.snapshots_shipped,
            "epoch_cuts": self.epoch_cuts,
            "reconfigurations": self.reconfigurations,
            "violation_count": self.violation_count,
            "checks": {
                name: self.checks[name].as_dict()
                for name in ALL_CHECKS
                if name in self.checks
            },
        }


class _Auditor:
    """Single-pass state machine over one run's events."""

    def __init__(self, run: str, protocol: str | None) -> None:
        relaxed = RELAXED_CHECKS.get(protocol or "", frozenset())
        self.report = AuditReport(run=run, protocol=protocol)
        for name in ALL_CHECKS:
            result = CheckResult(name)
            if name in relaxed:
                result.checked = False
                result.reason = f"not promised by protocol {protocol!r}"
            self.report.checks[name] = result
        # Schema, from the system.catalog event.
        self.catalog_seen = False
        self.fragment_agent: dict[str, str] = {}
        self.fragment_objects: dict[str, set[str]] = {}
        self.fragment_prefixes: dict[str, tuple[str, ...]] = {}
        # fragment -> replica set; None for traces whose catalog predates
        # the ``replicas`` field (the check is then skipped, see finish()).
        self.fragment_replicas: dict[str, set[str] | None] = {}
        self.replicas_known = False
        # Epoch fencing: membership epoch in force (catalog + reconfig
        # events), newest stream epoch opened per fragment, and which
        # node holds minting rights per (fragment, stream epoch).  A
        # token arrival hands minting rights on within an epoch, so
        # arrivals clear the entries for the moved fragments.
        self.membership_epoch: dict[str, int] = {}
        self.max_epoch: dict[str, int] = {}
        self.epoch_minter: dict[tuple[str, int], str] = {}
        # Token state machine: agent -> home node / in-flight move.
        self.agent_home: dict[str, str] = {}
        self.in_transit: dict[str, tuple[str, str]] = {}  # agent -> (src, dst)
        # Install bookkeeping.
        self.installed: set[tuple[str, str]] = set()  # (txn, node)
        self.last_slot: dict[tuple[str, str], tuple[int, int]] = {}
        self.slot_owner: dict[tuple[str, int, int], str] = {}
        self.slot_event: dict[tuple[str, int, int], dict[str, Any]] = {}
        # fragment -> node -> install order (txn ids).
        self.order: dict[str, dict[str, list[str]]] = {}
        self.install_event: dict[tuple[str, str, str], dict[str, Any]] = {}
        # Embedded availability accountant: fed every event, queried at
        # each blocked submission (file order is causal order, so the
        # crash/departure that justifies the reject precedes it).
        self.accountant = AvailabilityAccountant()

    # -- event dispatch ---------------------------------------------------

    def feed(self, event: dict[str, Any]) -> None:
        self.report.events += 1
        self.accountant.feed(event)
        etype = event.get("type")
        if etype == taxonomy.TXN_REJECT:
            self._on_reject(event)
        elif etype == taxonomy.SYSTEM_CATALOG:
            self._on_catalog(event)
        elif etype in _INSTALL_TYPES:
            self._on_install(event)
        elif etype == taxonomy.TOKEN_MOVE_DEPART:
            self._on_depart(event)
        elif etype == taxonomy.TOKEN_MOVE_ARRIVE:
            self._on_arrive(event)
        elif etype == taxonomy.SYSTEM_RECONFIG:
            self._on_reconfig(event)
        elif etype == taxonomy.AVAIL_EPOCH_CUT:
            self._on_epoch_cut(event)
        elif etype == taxonomy.RECOVERY_CHECKPOINT:
            self.report.checkpoints += 1
        elif etype == taxonomy.RECOVERY_CATCHUP_SNAPSHOT:
            self.report.snapshots_shipped += 1

    def _on_reject(self, event: dict[str, Any]) -> None:
        """A blocked submission must fall inside an accounted window."""
        check = self.report.checks["availability"]
        if not check.checked:
            return
        cause = event.get("cause")
        if cause is None:
            return  # ordinary reject (validation, duplicate, ...)
        if not self.accountant.catalog_seen:
            check.checked = False
            check.reason = "no system.catalog event in trace"
            return
        agent = event.get("agent")
        fragments = self.accountant.agent_fragments.get(agent, ())
        if not any(
            self.accountant.unavailable(fragment, "write")
            for fragment in fragments
        ):
            check.add(
                f"submission {event.get('txn')} blocked ({cause}) but the "
                f"accountant has no open write-unavailability window for "
                f"any fragment of agent {agent}",
                event,
            )

    def _on_catalog(self, event: dict[str, Any]) -> None:
        self.catalog_seen = True
        for name, spec in (event.get("fragments") or {}).items():
            self.fragment_agent[name] = spec.get("agent")
            self.fragment_objects[name] = set(spec.get("objects") or ())
            self.fragment_prefixes[name] = tuple(spec.get("prefixes") or ())
            replicas = spec.get("replicas")
            if replicas is None:
                self.fragment_replicas.setdefault(name, None)
            else:
                self.fragment_replicas[name] = set(replicas)
                self.replicas_known = True
            epoch = spec.get("epoch")
            if epoch is not None:
                self.membership_epoch[name] = int(epoch)
        for agent, home in (event.get("agents") or {}).items():
            self.agent_home.setdefault(agent, home)

    def _on_reconfig(self, event: dict[str, Any]) -> None:
        """An online replica-set change: re-scope replication, fence epochs."""
        self.report.reconfigurations += 1
        fragment = event.get("fragment")
        if fragment is None:
            return
        replicas = event.get("replicas")
        if replicas is not None:
            self.fragment_replicas[fragment] = set(replicas)
            self.replicas_known = True
        epoch = event.get("epoch")
        check = self.report.checks["epoch_fencing"]
        if epoch is not None:
            previous = self.membership_epoch.get(fragment)
            if (
                check.checked
                and previous is not None
                and int(epoch) <= previous
            ):
                check.add(
                    f"reconfiguration of fragment {fragment} carries "
                    f"membership epoch {epoch}, not above the previous "
                    f"epoch {previous}",
                    event,
                )
            self.membership_epoch[fragment] = int(epoch)

    def _on_epoch_cut(self, event: dict[str, Any]) -> None:
        """A failover opened a new stream epoch at the successor."""
        self.report.epoch_cuts += 1
        fragment = event.get("fragment")
        epoch = event.get("epoch")
        node = event.get("node")
        if fragment is None or epoch is None:
            return
        epoch = int(epoch)
        check = self.report.checks["epoch_fencing"]
        if check.checked and epoch <= self.max_epoch.get(fragment, -1):
            check.add(
                f"epoch cut opened epoch {epoch} for fragment {fragment} "
                f"at or below an already-open epoch "
                f"{self.max_epoch[fragment]}",
                event,
            )
        self.max_epoch[fragment] = max(
            self.max_epoch.get(fragment, 0), epoch
        )
        if node is not None:
            self.epoch_minter[(fragment, epoch)] = node

    # -- installs ---------------------------------------------------------

    def _on_install(self, event: dict[str, Any]) -> None:
        checks = self.report.checks
        txn = event.get("txn") or event.get("source_txn")
        node = event.get("node")
        fragment = event.get("fragment")
        epoch = event.get("epoch", 0)
        seq = event.get("stream_seq")
        if txn is None or node is None or fragment is None or seq is None:
            checks["exactly_once"].add(
                "install event missing lineage fields", event
            )
            return
        self.report.installs += 1

        # Replica-set membership: the install must land inside the
        # fragment's replica set recorded by the catalog.
        if checks["replication"].checked:
            replicas = self.fragment_replicas.get(fragment)
            if replicas is not None and node not in replicas:
                checks["replication"].add(
                    f"transaction {txn} of fragment {fragment} installed "
                    f"at node {node}, outside its replica set "
                    f"{sorted(replicas)}",
                    event,
                )

        # Exactly-once per (txn, node).
        key = (txn, node)
        if key in self.installed:
            checks["exactly_once"].add(
                f"transaction {txn} installed twice at node {node}", event
            )
        self.installed.add(key)

        # Per-node, per-fragment stream order.
        slot = (int(epoch), int(seq))
        if checks["fifo_order"].checked:
            last = self.last_slot.get((node, fragment))
            if last is not None and slot <= last:
                checks["fifo_order"].add(
                    f"node {node} installed {fragment} stream slot "
                    f"(epoch {slot[0]}, seq {slot[1]}) after "
                    f"(epoch {last[0]}, seq {last[1]})",
                    event,
                )
        previous = self.last_slot.get((node, fragment))
        if previous is None or slot > previous:
            self.last_slot[(node, fragment)] = slot

        # Cross-node slot ownership + install order, settled after the
        # pass (agreement is a whole-trace property).
        if checks["agreement"].checked:
            owner = self.slot_owner.setdefault((fragment, *slot), txn)
            if owner == txn:
                self.slot_event.setdefault((fragment, *slot), event)
            else:
                checks["agreement"].add(
                    f"stream slot (fragment {fragment}, epoch {slot[0]}, "
                    f"seq {slot[1]}) holds {owner} at one node but {txn} "
                    f"at node {node}",
                    event,
                )
            sequence = self.order.setdefault(fragment, {}).setdefault(
                node, []
            )
            if (fragment, node, txn) not in self.install_event:
                sequence.append(txn)
                self.install_event[(fragment, node, txn)] = event

        if event.get("type") == taxonomy.LINEAGE_COMMIT:
            self._on_commit(event, txn, node, fragment)

    def _on_commit(
        self, event: dict[str, Any], txn: str, node: str, fragment: str
    ) -> None:
        checks = self.report.checks
        agent = event.get("agent")
        epoch = int(event.get("epoch", 0))
        fencing = checks["epoch_fencing"]
        if fencing.checked:
            newest = self.max_epoch.get(fragment, 0)
            if epoch < newest:
                fencing.add(
                    f"commit {txn} minted at node {node} in stale epoch "
                    f"{epoch} of fragment {fragment}, after epoch "
                    f"{newest} was opened",
                    event,
                )
            minter = self.epoch_minter.setdefault((fragment, epoch), node)
            if minter != node:
                fencing.add(
                    f"commit {txn} minted at node {node} in epoch {epoch} "
                    f"of fragment {fragment}, already minted at {minter} "
                    f"with no token arrival in between",
                    event,
                )
        self.max_epoch[fragment] = max(self.max_epoch.get(fragment, 0), epoch)
        if checks["token_uniqueness"].checked and agent in self.in_transit:
            src, dst = self.in_transit[agent]
            checks["token_uniqueness"].add(
                f"commit {txn} minted by agent {agent} while its token "
                f"was in transit {src}->{dst}",
                event,
            )
        if not checks["initiation"].checked:
            return
        if not self.catalog_seen:
            checks["initiation"].checked = False
            checks["initiation"].reason = "no system.catalog event in trace"
            return
        expected_agent = self.fragment_agent.get(fragment)
        if expected_agent is not None and agent != expected_agent:
            checks["initiation"].add(
                f"commit {txn} on fragment {fragment} minted by agent "
                f"{agent}, whose catalog agent is {expected_agent}",
                event,
            )
        home = self.agent_home.get(agent)
        if home is not None and node != home and agent not in self.in_transit:
            checks["initiation"].add(
                f"commit {txn} minted at node {node} but agent {agent}'s "
                f"home is {home}",
                event,
            )
        objects = event.get("objects") or ()
        prefixes = self.fragment_prefixes.get(fragment, ())
        members = self.fragment_objects.get(fragment, set())
        for obj in objects:
            if obj in members or any(obj.startswith(p) for p in prefixes):
                continue
            checks["initiation"].add(
                f"commit {txn} wrote object {obj}, which is not in "
                f"fragment {fragment}",
                event,
            )

    # -- token movement ---------------------------------------------------

    def _on_depart(self, event: dict[str, Any]) -> None:
        check = self.report.checks["token_uniqueness"]
        agent = event.get("agent")
        src, dst = event.get("src"), event.get("dst")
        if check.checked:
            if agent in self.in_transit:
                check.add(
                    f"agent {agent} departed {src}->{dst} while already "
                    f"in transit {self.in_transit[agent][0]}->"
                    f"{self.in_transit[agent][1]}",
                    event,
                )
            home = self.agent_home.get(agent)
            if home is not None and src != home:
                check.add(
                    f"agent {agent} departed from {src} but its token "
                    f"was at {home}",
                    event,
                )
        self.in_transit[agent] = (src, dst)

    def _on_arrive(self, event: dict[str, Any]) -> None:
        check = self.report.checks["token_uniqueness"]
        agent = event.get("agent")
        dst = event.get("dst")
        flight = self.in_transit.pop(agent, None)
        if check.checked:
            if flight is None:
                check.add(
                    f"agent {agent} arrived at {dst} without a matching "
                    f"departure",
                    event,
                )
            elif flight[1] != dst:
                check.add(
                    f"agent {agent} arrived at {dst} but departed "
                    f"toward {flight[1]}",
                    event,
                )
        self.agent_home[agent] = dst
        # A legitimate arrival hands minting rights on: the new home may
        # mint in the fragments' current epochs without tripping the
        # two-minters fence.
        fragments = event.get("fragments") or ()
        if fragments:
            moved = set(fragments)
            for key in [k for k in self.epoch_minter if k[0] in moved]:
                del self.epoch_minter[key]

    # -- whole-trace checks ------------------------------------------------

    def finish(self) -> AuditReport:
        check = self.report.checks["agreement"]
        if check.checked:
            for fragment, by_node in sorted(self.order.items()):
                self._check_agreement(fragment, by_node)
        replication = self.report.checks["replication"]
        if replication.checked and not self.replicas_known:
            replication.checked = False
            replication.reason = (
                "no replica-set info in the system.catalog event"
                if self.catalog_seen
                else "no system.catalog event in trace"
            )
        availability = self.report.checks["availability"]
        if availability.checked and not self.catalog_seen:
            availability.checked = False
            availability.reason = "no system.catalog event in trace"
        self.accountant.finish()
        return self.report

    def _check_agreement(
        self, fragment: str, by_node: dict[str, list[str]]
    ) -> None:
        """Pairwise common-order consistency of one fragment's installs."""
        check = self.report.checks["agreement"]
        nodes = sorted(by_node)
        index = {
            node: {txn: i for i, txn in enumerate(by_node[node])}
            for node in nodes
        }
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                common = [
                    txn for txn in by_node[left] if txn in index[right]
                ]
                positions = [index[right][txn] for txn in common]
                for j in range(1, len(positions)):
                    if positions[j] < positions[j - 1]:
                        later = common[j - 1]
                        earlier = common[j]
                        check.add(
                            f"nodes {left} and {right} disagree on "
                            f"fragment {fragment} install order: "
                            f"{later} before {earlier} at {left}, "
                            f"after it at {right}",
                            self.install_event[(fragment, right, later)],
                        )
                        break


def infer_protocol(run: str) -> str | None:
    """Movement protocol named by a ``{protocol}@{seed}`` run label."""
    name = run.split("@", 1)[0]
    return name if name in RELAXED_CHECKS or name in _KNOWN_PROTOCOLS else None


#: Protocol names the guarantee matrix knows (kept in sync with
#: :data:`repro.analysis.torture.PROTOCOLS` without importing it — the
#: auditor must stay runnable on a bare trace file).
_KNOWN_PROTOCOLS = frozenset(
    {"none", "majority", "with-data", "with-seqno", "corrective"}
)


def audit_events(
    events: Iterable[dict[str, Any]],
    protocol: str | None = None,
    run: str = "",
) -> AuditReport:
    """Audit one run's event dicts (emission order) against the invariants."""
    auditor = _Auditor(run, protocol)
    for event in events:
        auditor.feed(event)
    return auditor.finish()


def audit_trace(
    path: str, protocol: str | None = None
) -> dict[str, AuditReport]:
    """Audit a JSONL trace file, one report per ``run`` context value.

    Events with no ``run`` field group under ``""``.  When ``protocol``
    is not forced, each run's protocol is inferred from a
    ``{protocol}@{seed}`` label (the chaos harness convention); unknown
    labels audit at full strictness.
    """
    grouped: dict[str, list[dict[str, Any]]] = {}
    for record in read_trace(path):
        grouped.setdefault(str(record.get("run", "")), []).append(record)
    return {
        run: audit_events(
            events, protocol=protocol or infer_protocol(run), run=run
        )
        for run, events in sorted(grouped.items())
    }


def write_report(path: str, reports: dict[str, AuditReport]) -> None:
    """Write audit reports as a JSON document (one entry per run)."""
    payload = {
        "ok": all(report.ok for report in reports.values()),
        "runs": {run: report.as_dict() for run, report in reports.items()},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- timeline reconstruction ---------------------------------------------


def _event_txns(event: dict[str, Any]) -> list[str]:
    """Transaction ids an event mentions (singular fields + batch lists)."""
    out = []
    for key in ("txn", "source_txn"):
        value = event.get(key)
        if value:
            out.append(str(value))
    txns = event.get("txns")
    if isinstance(txns, list):
        out.extend(str(t) for t in txns)
    return out


def related_txns(events: Iterable[dict[str, Any]], txn_id: str) -> set[str]:
    """``txn_id`` plus its lineage relatives via ``parent`` links.

    Walks both directions to a fixpoint: ancestors (the original a
    repackaged ``rp:T`` came from) and descendants (repackagings of the
    asked-for transaction).
    """
    parents: dict[str, str] = {}
    for event in events:
        parent = event.get("parent")
        if parent:
            for txn in _event_txns(event):
                parents[txn] = str(parent)
    related = {txn_id}
    changed = True
    while changed:
        changed = False
        for child, parent in parents.items():
            if child in related and parent not in related:
                related.add(parent)
                changed = True
            if parent in related and child not in related:
                related.add(child)
                changed = True
    return related


def build_timeline(
    events: Iterable[dict[str, Any]], txn_id: str
) -> list[dict[str, Any]]:
    """Events touching ``txn_id`` (or its lineage relatives), in order.

    The returned dicts are the trace records verbatim — ``repro
    timeline`` renders them, tests assert on them.
    """
    materialized = list(events)
    wanted = related_txns(materialized, txn_id)
    return [
        event
        for event in materialized
        if any(txn in wanted for txn in _event_txns(event))
    ]


def timeline_from_trace(
    path: str, txn_id: str, run: str | None = None
) -> list[dict[str, Any]]:
    """Load a JSONL trace and build one transaction's timeline."""
    events = [
        record
        for record in read_trace(path)
        if run is None or str(record.get("run", "")) == run
    ]
    return build_timeline(events, txn_id)
