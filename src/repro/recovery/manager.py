"""Recovery policy engine: checkpoint cadence, pruning, delta catch-up.

One :class:`RecoveryManager` per :class:`FragmentedDatabase` owns the
three decisions the checkpoint subsystem has to make:

* **when to checkpoint** — every ``checkpoint_every`` installs per
  (node, fragment), on demand via :meth:`checkpoint_now`, or from the
  ``repro checkpoint`` CLI;
* **what may be pruned** — each checkpoint gossips a ``ckpt-mark``
  over the reliable broadcast; every replica prunes its archive,
  admission buffer, and WAL prefix behind the cluster low-watermark
  (min mark across replicas), never above its *own* durable
  checkpoint, so any replica can always serve checkpoint + retained
  tail to a rejoiner.  A replica that has been down or unreachable
  past ``grace`` stops pinning the watermark (§4.4's long-partition
  case: the rejoiner will need a shipped checkpoint instead);
* **how a rejoiner catches up** — cursor-based anti-entropy replacing
  the all-peers full-archive exchange: the rejoiner advertises its
  per-fragment cursors to one chosen donor per fragment; the donor
  answers with exactly the missing sequence range, or a checkpoint
  plus tail when the cursor is below its compaction horizon.  Replies
  flow through ``movement.admit`` so FIFO, dedup, and lineage hold.

Everything here is *middleware* state in the crash-stop model — the
manager survives node crashes the same way the network does; only the
per-node :class:`CheckpointStore` and WAL are "durable at the node".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import DesignError
from repro.net.message import Message
from repro.obs import taxonomy
from repro.recovery.checkpoint import (
    FragmentCheckpoint,
    apply_checkpoint,
    build_checkpoint,
)
from repro.recovery.watermark import WatermarkTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import DatabaseNode
    from repro.core.system import FragmentedDatabase
    from repro.core.transaction import QuasiTransaction
    from repro.sim.simulator import EventHandle

#: Broadcast body type for checkpoint-cursor gossip.
CKPT_MARK = "ckpt-mark"
#: Unicast kinds for the cursor-based catch-up exchange.
CATCHUP_REQ = "catchup-req"
CATCHUP_REP = "catchup-rep"

# Rough per-entry struct sizes for the retained-bytes gauge.  These are
# bookkeeping estimates (a quasi is ~a dict of versions plus ids, a WAL
# record wraps one, a checkpointed object is one Version), not measured
# allocations — the gauge exists to show *trends* (bounded vs growing),
# and a consistent estimate does that.
_QT_BYTES = 48
_WRITE_BYTES = 32
_WAL_RECORD_BYTES = 64
_CKPT_OBJECT_BYTES = 40


@dataclass(frozen=True, slots=True)
class RecoveryConfig:
    """Policy knobs for the checkpoint / compaction / catch-up subsystem.

    ``checkpoint_every=None`` (default) disarms automatic checkpoints
    and therefore all pruning — marks are only gossiped when someone
    checkpoints.  ``grace=None`` means a downed replica pins the
    watermark forever (nothing is pruned past its cursor); a float is
    the §4.4 partition-awareness: after that much sim time down or
    unreachable, the replica stops counting toward the minimum and
    must expect a shipped checkpoint on rejoin.  ``catchup_retry`` /
    ``catchup_attempts`` bound the rejoiner's donor rotation when a
    chosen donor is itself down or cannot serve the range.
    """

    checkpoint_every: int | None = None
    grace: float | None = 60.0
    prune: bool = True
    truncate_wal: bool = True
    catchup_retry: float = 30.0
    catchup_attempts: int = 3

    def __post_init__(self) -> None:
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise DesignError("checkpoint_every must be >= 1 (or None)")
        if self.grace is not None and self.grace < 0:
            raise DesignError("grace must be >= 0 (or None)")
        if self.catchup_retry <= 0:
            raise DesignError("catchup_retry must be positive")
        if self.catchup_attempts < 1:
            raise DesignError("catchup_attempts must be >= 1")

    @property
    def armed(self) -> bool:
        """True when automatic checkpointing (and thus pruning) is on."""
        return self.checkpoint_every is not None


@dataclass
class _Catchup:
    """Per-rejoiner catch-up state: what is still owed, whom we asked."""

    outstanding: set[str] = field(default_factory=set)
    tried: dict[str, set[str]] = field(default_factory=dict)
    #: fragments whose donor must ship a checkpoint even when the
    #: cursor is above its compaction horizon (reconfiguration joins
    #: and tainted demotions: values that live only in snapshots).
    snapshot: set[str] = field(default_factory=set)
    #: request rounds so far; a merge joins the current round.
    attempts: int = 1
    timer: "EventHandle | None" = None


class RecoveryManager:
    """Checkpoint cadence, watermark pruning, and rejoin catch-up."""

    def __init__(self, config: RecoveryConfig | None = None) -> None:
        self.config = config or RecoveryConfig()
        self.tracker = WatermarkTracker()
        self.system: "FragmentedDatabase | None" = None
        self._installs_since: dict[tuple[str, str], int] = {}
        self._suspect_since: dict[str, float] = {}
        self._pending: dict[str, _Catchup] = {}

    # -- wiring -------------------------------------------------------------

    def attach(self, system: "FragmentedDatabase") -> None:
        """Bind to the system: message handlers, counters, gauges."""
        self.system = system
        metrics = system.metrics
        self._c_checkpoints = metrics.counter("recovery.checkpoints")
        self._c_wal_truncated = metrics.counter("recovery.wal_truncated")
        self._c_pruned = metrics.counter("recovery.archive_pruned")
        self._c_requests = metrics.counter("recovery.catchup_requests")
        self._c_delta_qts = metrics.counter("recovery.delta_qts_shipped")
        self._c_delta_objects = metrics.counter(
            "recovery.delta_objects_shipped"
        )
        self._c_ckpts_shipped = metrics.counter("recovery.checkpoints_shipped")
        self._c_snapshot_objects = metrics.counter(
            "recovery.snapshot_objects_shipped"
        )
        metrics.gauge("recovery.archive_entries", self._archive_entries)
        metrics.gauge("recovery.wal_records", self._wal_records)
        metrics.gauge("recovery.buffer_entries", self._buffer_entries)
        metrics.gauge("recovery.checkpoint_objects", self._checkpoint_objects)
        metrics.gauge("recovery.retained_bytes", self._retained_bytes)
        for node in system.nodes.values():
            self.register_node(node)

    def register_node(self, node: "DatabaseNode") -> None:
        """Install this manager's message handlers on one node."""
        node.register_unicast(
            CATCHUP_REQ, lambda msg, n=node: self._on_catchup_req(n, msg)
        )
        node.register_unicast(
            CATCHUP_REP, lambda msg, n=node: self._on_catchup_rep(n, msg)
        )
        node.register_broadcast(CKPT_MARK, self._on_mark)

    # -- gauges -------------------------------------------------------------

    def _archive_entries(self) -> int:
        return sum(
            len(entries)
            for node in self.system.nodes.values()
            for entries in node.streams.archive.values()
        )

    def _wal_records(self) -> int:
        return sum(len(node.wal) for node in self.system.nodes.values())

    def _buffer_entries(self) -> int:
        return sum(
            len(parked)
            for node in self.system.nodes.values()
            for parked in node.streams.buffer.values()
        )

    def _checkpoint_objects(self) -> int:
        return sum(
            node.checkpoints.object_count()
            for node in self.system.nodes.values()
        )

    def _retained_bytes(self) -> int:
        qt_bytes = 0
        for node in self.system.nodes.values():
            for entries in node.streams.archive.values():
                for quasi in entries.values():
                    qt_bytes += _QT_BYTES + _WRITE_BYTES * len(quasi.writes)
        return (
            qt_bytes
            + _WAL_RECORD_BYTES * self._wal_records()
            + _CKPT_OBJECT_BYTES * self._checkpoint_objects()
        )

    # -- checkpoint cadence -------------------------------------------------

    def note_install(self, node: "DatabaseNode", quasi: "QuasiTransaction") -> None:
        """Install hook: count toward the node's every-K checkpoint policy."""
        every = self.config.checkpoint_every
        if every is None:
            return
        key = (node.name, quasi.fragment)
        count = self._installs_since.get(key, 0) + 1
        if count >= every and self.checkpoint_now(node, quasi.fragment):
            self._installs_since[key] = 0
        else:
            self._installs_since[key] = count

    def checkpoint_now(
        self, node: "DatabaseNode", fragment: str, gossip: bool = True
    ) -> FragmentCheckpoint | None:
        """Take and persist a checkpoint at ``node``; gossip its mark.

        Also the on-demand / CLI entry point.  Truncates the node's WAL
        behind the new checkpoint (policy permitting) and prunes behind
        the watermark, which the fresh mark may have advanced.  Returns
        ``None`` (deferring to a later install) while the fragment's
        apply queue is non-empty: the stream cursor can run ahead of the
        store there (a corrective M0 fast-forwards it while the carried
        catch-up is still queued), and a snapshot stamped with that
        cursor would claim writes it does not contain.
        """
        system = self.system
        if node.apply_queue.depth(fragment) > 0:
            return None
        ckpt = build_checkpoint(system, node, fragment)
        node.checkpoints.put(ckpt)
        self._c_checkpoints.inc()
        if node.tracer.enabled:
            node.tracer.emit(
                taxonomy.RECOVERY_CHECKPOINT,
                node=node.name,
                fragment=fragment,
                upto=ckpt.upto,
                epoch=ckpt.epoch,
                objects=len(ckpt.snapshot),
            )
        self._truncate_wal(node, ckpt)
        self.tracker.note(fragment, node.name, ckpt.upto)
        if gossip:
            # Only the fragment's replicas prune on its marks; under
            # partial replication the gossip multicasts to exactly that
            # set (non-replicas hold nothing to prune).
            targets, stream = system.propagation_plan(fragment)
            system.broadcast.multicast(
                node.name,
                {
                    "type": CKPT_MARK,
                    "fragment": fragment,
                    "node": node.name,
                    "upto": ckpt.upto,
                },
                kind="ckpt",
                targets=targets,
                stream=stream,
            )
        self._prune(node, fragment)
        return ckpt

    def _truncate_wal(
        self, node: "DatabaseNode", ckpt: FragmentCheckpoint
    ) -> None:
        if not self.config.truncate_wal:
            return
        dropped = node.wal.truncate(
            ckpt.fragment, ckpt.upto, ckpt.epoch, frozenset(ckpt.snapshot)
        )
        if dropped:
            self._c_wal_truncated.inc(dropped)
            if node.tracer.enabled:
                node.tracer.emit(
                    taxonomy.RECOVERY_WAL_TRUNCATE,
                    node=node.name,
                    fragment=ckpt.fragment,
                    dropped=dropped,
                    remaining=len(node.wal),
                )

    # -- watermark + pruning ------------------------------------------------

    def _on_mark(
        self, node: "DatabaseNode", sender: str, body: dict[str, Any]
    ) -> None:
        """Broadcast handler: a peer checkpointed; maybe prune here."""
        fragment = body["fragment"]
        self.tracker.note(fragment, body["node"], body["upto"])
        self._prune(node, fragment)

    def _suspect(self, fragment: str, name: str) -> bool:
        """Down, or unreachable from the fragment's stream source."""
        system = self.system
        node = system.nodes[name]
        if node.down:
            return True
        try:
            home = system.agent_of(fragment).home_node
        except DesignError:
            return False
        if home == name or system.nodes[home].down:
            return False
        return not system.topology.reachable(home, name)

    def _excluded(self, fragment: str, replicas: list[str]) -> set[str]:
        """Replicas past the grace period that stop pinning the watermark."""
        grace = self.config.grace
        if grace is None:
            return set()
        now = self.system.sim.now
        out: set[str] = set()
        for name in replicas:
            if self._suspect(fragment, name):
                since = self._suspect_since.setdefault(name, now)
                if now - since >= grace:
                    out.add(name)
            else:
                self._suspect_since.pop(name, None)
        return out

    def watermark(self, fragment: str) -> int:
        """The current cluster low-watermark for ``fragment``.

        Joiners still syncing do not pin it: their cursor is *expected*
        to trail (that is what the catch-up is for), and the snapshot
        path serves them regardless of how far peers have compacted.
        """
        syncing = self.system.syncing_replicas.get(fragment, ())
        replicas = [
            name
            for name in self.system.nodes
            if self.system.replicates(name, fragment) and name not in syncing
        ]
        excluded = self._excluded(fragment, replicas)
        return self.tracker.watermark(fragment, replicas, excluded)

    def majority_checkpointed(self, fragment: str) -> tuple[int, int]:
        """The ``(epoch, seq)`` cursor no failover cut can start below.

        It is the highest cursor that a majority of the fragment's
        replica set holds a durable checkpoint at or past.  A
        succession needs replies from a majority of the same set, two
        majorities share a replica, and the successor folds the best
        checkpoint among the replies in before it opens the new epoch
        at its cursor — so every cut starts at or above this.  A
        checkpoint leaves a shelf by demotion, which rewinds to a
        cut's start, itself at or above this, or with its replica —
        and replica sets change one member at a time, which keeps any
        old majority and any new one overlapping.  Read off the
        shelves, not the gossiped marks: a mark outlives a demoted
        checkpoint.
        """
        system = self.system
        replicas = system.replica_set(fragment)
        held = sorted(
            (
                ckpt.cursor
                for ckpt in (
                    system.nodes[name].checkpoints.get(fragment)
                    for name in replicas
                )
                if ckpt is not None
            ),
            reverse=True,
        )
        majority = len(replicas) // 2 + 1
        return held[majority - 1] if len(held) >= majority else (0, 0)

    def _prune(self, node: "DatabaseNode", fragment: str) -> None:
        """Prune one replica's archive behind the watermark.

        The floor is clamped to the replica's *own* durable checkpoint:
        checkpoint ∪ retained archive must always cover the stream from
        seq 0, or the replica could not serve a far-behind rejoiner.
        A replica with no checkpoint therefore never prunes.
        """
        if not self.config.prune:
            return
        own = node.checkpoints.get(fragment)
        if own is None:
            return
        floor = min(self.watermark(fragment), own.upto)
        if floor <= 0:
            return
        dropped = node.streams.prune(fragment, floor)
        if dropped:
            self._c_pruned.inc(dropped)
            if node.tracer.enabled:
                node.tracer.emit(
                    taxonomy.RECOVERY_PRUNE,
                    node=node.name,
                    fragment=fragment,
                    below=floor,
                    dropped=dropped,
                )

    # -- crash / recover hooks ----------------------------------------------

    def node_crashed(self, node: "DatabaseNode") -> None:
        """Pipeline hook: start the grace clock, drop volatile counters."""
        self._suspect_since.setdefault(node.name, self.system.sim.now)
        self._cancel_pending(node.name)
        for key in [k for k in self._installs_since if k[0] == node.name]:
            del self._installs_since[key]

    def node_recovered(self, node: "DatabaseNode") -> None:
        """Pipeline hook: the node is back; it pins the watermark again."""
        self._suspect_since.pop(node.name, None)

    # -- catch-up (rejoiner side) -------------------------------------------

    def catch_up(
        self,
        node: "DatabaseNode",
        fragments: list[str] | None = None,
        want_snapshot: bool = False,
        donor: str | None = None,
    ) -> None:
        """Start cursor-based anti-entropy for a node owed history.

        One donor per fragment (grouped into one request per donor),
        bounded retries rotating donors if a reply never comes or a
        donor could not serve the range.  ``fragments=None`` — crash
        recovery — covers everything the node replicates; a list — a
        join, or a demotion (recovery for one fragment) — only those.
        Calls merge: only fragments not yet in flight (or newly owed a
        snapshot) are requested, under the one retry timer.
        ``want_snapshot`` asks for a checkpoint even above the donor's
        compaction horizon (a joiner needs initial values, a demoted
        replica what its dropped checkpoint held).  ``donor`` is the
        first peer to ask; rotation then proceeds as usual.
        """
        system = self.system
        names = [
            fragment.name
            for fragment in system.catalog
            if system.replicates(node.name, fragment.name)
            and (fragments is None or fragment.name in fragments)
        ]
        if not names or len(system.nodes) < 2:
            return
        state = self._pending.setdefault(node.name, _Catchup())
        added = [
            fragment
            for fragment in names
            if fragment not in state.outstanding
            or (want_snapshot and fragment not in state.snapshot)
        ]
        if not added:
            return
        state.outstanding.update(added)
        for fragment in added:
            state.tried[fragment] = set()
        if want_snapshot:
            state.snapshot.update(added)
        self._send_requests(node, state, added, first=donor)

    def _pick_donor(
        self,
        node: "DatabaseNode",
        fragment: str,
        tried: set[str],
        first: str | None = None,
    ) -> str | None:
        """Best untried peer: ``first``, then up and reachable, by name."""
        system = self.system
        best: tuple[tuple[bool, bool, bool, bool, str], str] | None = None
        for name in system.nodes:
            if name == node.name or name in tried:
                continue
            if not system.replicates(name, fragment):
                continue
            peer = system.nodes[name]
            rank = (
                name != first,
                peer.down,
                not system.topology.reachable(node.name, name),
                # A joiner still syncing is a donor of last resort: its
                # own history may be incomplete.
                name in system.syncing_replicas.get(fragment, ()),
                name,
            )
            if best is None or rank < best[0]:
                best = (rank, name)
        return None if best is None else best[1]

    def _send_requests(
        self,
        node: "DatabaseNode",
        state: _Catchup,
        fragments: list[str] | set[str],
        first: str | None = None,
    ) -> None:
        """Ask one donor per fragment; arm the retry timer if none is."""
        system = self.system
        assignments: dict[str, dict[str, int]] = {}
        for fragment in sorted(fragments):
            tried = state.tried[fragment]
            donor = self._pick_donor(node, fragment, tried, first)
            if donor is None and tried:
                # Every replica has been tried; start the rotation over.
                tried.clear()
                donor = self._pick_donor(node, fragment, tried)
            if donor is None:
                # No peer replicates this fragment at all — this node's
                # WAL/checkpoint is the whole truth; nothing owed.
                state.outstanding.discard(fragment)
                continue
            tried.add(donor)
            cursor = int(node.streams.next_expected.get(fragment, 0))
            assignments.setdefault(donor, {})[fragment] = cursor
        for donor, cursors in sorted(assignments.items()):
            self._c_requests.inc()
            if node.tracer.enabled:
                node.tracer.emit(
                    taxonomy.RECOVERY_CATCHUP_REQUEST,
                    node=node.name,
                    donor=donor,
                    cursors=dict(sorted(cursors.items())),
                    attempt=state.attempts,
                )
            request: dict[str, Any] = {
                "requester": node.name,
                "cursors": cursors,
            }
            wants = sorted(state.snapshot & set(cursors))
            if wants:
                # Key present only when a snapshot is owed, so plain
                # recovery requests stay byte-identical; with epochs.
                request["snapshot"] = {
                    fragment: node.streams.epoch[fragment]
                    for fragment in wants
                }
            system.network.send(node.name, donor, CATCHUP_REQ, request)
        if (
            state.timer is None
            and state.outstanding
            and state.attempts < self.config.catchup_attempts
        ):
            state.timer = system.sim.schedule(
                self.config.catchup_retry,
                lambda: self._retry(node.name),
                label=f"catchup-retry {node.name}",
            )

    def _retry(self, name: str) -> None:
        state = self._pending.get(name)
        if state is None:
            return
        state.timer = None
        node = self.system.nodes[name]
        if not state.outstanding or node.down:
            return
        state.attempts += 1
        self._send_requests(node, state, state.outstanding)

    def _cancel_pending(self, name: str) -> None:
        state = self._pending.pop(name, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()
            state.timer = None

    # -- catch-up (donor side) ----------------------------------------------

    def _horizon(self, donor: "DatabaseNode", fragment: str) -> int:
        """The donor's compaction horizon: lowest contiguous archived seq.

        Walking down from ``next_expected`` keeps the answer correct
        even if the archive has unrelated holes (it never should, but
        the serve decision must not depend on that).
        """
        archive = donor.streams.archive.get(fragment) or {}
        low = donor.streams.next_expected.get(fragment, 0)
        while low - 1 in archive:
            low -= 1
        return low

    def _build_part(
        self,
        donor: "DatabaseNode",
        requester: str,
        fragment: str,
        cursor: int,
        snapshot: FragmentCheckpoint | None = None,
    ) -> dict[str, Any]:
        """One fragment's slice of a catch-up reply.

        Ships ``[cursor, next_expected)`` from the archive when the
        cursor is at or above the compaction horizon; below it, ships
        the donor's checkpoint plus the tail above the checkpoint.  If
        neither covers the gap (no checkpoint and a pruned archive —
        only possible when the donor itself is mid-rejoin), the part is
        marked unserved and the requester's retry rotates donors.
        ``snapshot`` is shipped, with the tail above it, whatever the
        horizon: the checkpoint a snapshot request is served from.
        """
        streams = donor.streams
        upto = streams.next_expected.get(fragment, 0)
        horizon = self._horizon(donor, fragment)
        checkpoint = snapshot
        if checkpoint is None and cursor < horizon:
            checkpoint = donor.checkpoints.get(fragment)
        start = cursor if checkpoint is None else max(checkpoint.upto, cursor)
        if start < horizon:
            return {
                "checkpoint": None,
                "qts": [],
                "served": False,
                "horizon": horizon,
            }
        archive = streams.archive.get(fragment) or {}
        qts = [archive[seq] for seq in range(start, upto)]
        if checkpoint is not None:
            self._c_ckpts_shipped.inc()
            self._c_snapshot_objects.inc(len(checkpoint.snapshot))
            if donor.tracer.enabled:
                donor.tracer.emit(
                    taxonomy.RECOVERY_CATCHUP_SNAPSHOT,
                    node=requester,
                    donor=donor.name,
                    fragment=fragment,
                    upto=checkpoint.upto,
                    objects=len(checkpoint.snapshot),
                )
        if qts:
            self._c_delta_qts.inc(len(qts))
            self._c_delta_objects.inc(sum(len(q.writes) for q in qts))
            if donor.tracer.enabled:
                donor.tracer.emit(
                    taxonomy.RECOVERY_CATCHUP_DELTA,
                    node=requester,
                    donor=donor.name,
                    fragment=fragment,
                    start=start,
                    count=len(qts),
                )
        return {
            "checkpoint": checkpoint,
            "qts": qts,
            "served": True,
            "horizon": horizon,
        }

    def _on_catchup_req(self, donor: "DatabaseNode", message: Message) -> None:
        """Serve each fragment's gap, and any snapshot owed with it.

        That is the shelf checkpoint if it reaches the requester's
        cursor (a receiver ignores one below), else a fresh one — and
        while the apply queue defers that, the reply waits too.
        """
        if donor.down:
            return  # crashed while the reply waited: the requester rotates
        payload = message.payload
        owed = payload.get("snapshot") or {}
        parts: dict[str, dict[str, Any]] = {}
        for fragment, cursor in payload["cursors"].items():
            if not self.system.replicates(donor.name, fragment):
                continue
            snapshot = None
            if fragment in owed:
                snapshot = donor.checkpoints.get(fragment)
                if snapshot is None or snapshot.cursor < (
                    owed[fragment],
                    int(cursor),
                ):
                    snapshot = self.checkpoint_now(
                        donor, fragment, gossip=False
                    )
                if snapshot is None:
                    self.system.sim.schedule(
                        1.0,
                        lambda: self._on_catchup_req(donor, message),
                        label=f"catchup-snapshot retry {donor.name}",
                    )
                    return
            parts[fragment] = self._build_part(
                donor, payload["requester"], fragment, int(cursor), snapshot
            )
        self.system.network.send(
            donor.name,
            payload["requester"],
            CATCHUP_REP,
            {"donor": donor.name, "fragments": parts},
        )

    def _on_catchup_rep(self, node: "DatabaseNode", message: Message) -> None:
        system = self.system
        state = self._pending.get(node.name)
        for fragment, part in message.payload["fragments"].items():
            checkpoint = part["checkpoint"]
            if checkpoint is not None:
                if apply_checkpoint(node, checkpoint, persist=True):
                    self._truncate_wal(node, checkpoint)
                # The rejoiner's durable cursor jumped: mark it so peers
                # stop pinning the watermark on its stale cursor.
                self.tracker.note(fragment, node.name, checkpoint.upto)
            for quasi in part["qts"]:
                system.movement.admit(node, quasi)
            if (
                part["served"]
                and state is not None
                # An owed snapshot is settled by a part carrying one,
                # not by the reply to an earlier delta-only request.
                and (checkpoint is not None or fragment not in state.snapshot)
            ):
                state.outstanding.discard(fragment)
                state.snapshot.discard(fragment)
        if state is not None and not state.outstanding:
            self._cancel_pending(node.name)
            if node.tracer.enabled:
                node.tracer.emit(
                    taxonomy.RECOVERY_CATCHUP_DONE,
                    node=node.name,
                    attempts=state.attempts,
                )
            # A reconfiguration joiner that just finished syncing now
            # counts toward quorums (no-op for plain rejoiners).
            self.system.availability.reconfig.note_caught_up(node)
