"""Per-node replication stream bookkeeping.

One :class:`StreamLog` per node holds everything a replica knows about
the fragment update streams it follows: the next expected sequence
number and active epoch per fragment, the out-of-order admission
buffer, the duplicate-suppression set, and the archive of every
quasi-transaction seen (which the majority-move resync, the corrective
M0 replay, and crash recovery's anti-entropy all read).

This state used to live as five loose attributes on ``DatabaseNode``;
pulling it into one object gives the admission policies a single
surface to program against and makes the crash-stop contract explicit:
the whole log is volatile (:meth:`clear`), rebuilt from the WAL via
:meth:`record` + :meth:`observe` at recovery.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.transaction import QuasiTransaction


class StreamLog:
    """Volatile per-fragment stream state of one replica."""

    __slots__ = (
        "next_expected",
        "epoch",
        "buffer",
        "installed_sources",
        "archive",
        "arrived_at",
        "pruned_below",
        "pending_cut",
    )

    def __init__(self) -> None:
        #: fragment -> next stream sequence number this replica expects.
        self.next_expected: dict[str, int] = defaultdict(int)
        #: fragment -> currently active epoch (bumped by moves, §4.4.3).
        self.epoch: dict[str, int] = defaultdict(int)
        #: fragment -> {(epoch, seq): quasi} out-of-order admission buffer.
        self.buffer: dict[str, dict[tuple[int, int], QuasiTransaction]] = (
            defaultdict(dict)
        )
        #: source transaction ids already installed (duplicate filter).
        self.installed_sources: set[str] = set()
        #: fragment -> {seq: quasi} archive of everything seen.
        self.archive: dict[str, dict[int, QuasiTransaction]] = defaultdict(dict)
        #: source txn -> first pipeline-delivery time at this replica,
        #: consumed by the apply queue for the admission-wait histogram
        #: (delivery -> queue entry, reorder buffering included).
        self.arrived_at: dict[str, float] = {}
        #: fragment -> lowest stream seq still retained in the archive
        #: (everything below was compacted behind the watermark and is
        #: covered by this replica's durable checkpoint).
        self.pruned_below: dict[str, int] = {}
        #: fragment -> sorted ``(epoch, start_seq)`` failover epoch cuts
        #: this replica has not reached yet: the cursor must first admit
        #: the old-epoch prefix ``[cursor, start_seq)`` before each new
        #: epoch activates (the successor's stream continues at
        #: ``start_seq`` in the new epoch).  A list because a lagging
        #: replica can learn of several successive failovers at once.
        self.pending_cut: dict[str, list[tuple[int, int]]] = {}

    def seen(self, quasi: QuasiTransaction) -> bool:
        """True if this quasi-transaction was already installed here."""
        return quasi.source_txn in self.installed_sources

    def record(self, quasi: QuasiTransaction) -> None:
        """Note a quasi-transaction as installed (dedup set + archive)."""
        self.installed_sources.add(quasi.source_txn)
        self.archive[quasi.fragment][quasi.stream_seq] = quasi

    def observe(self, quasi: QuasiTransaction) -> None:
        """Advance the stream cursor past an installed quasi-transaction.

        Used at the origin (its own commits define the stream head) and
        during WAL replay; ordered admission advances the cursor itself.
        """
        fragment = quasi.fragment
        self.next_expected[fragment] = max(
            self.next_expected[fragment], quasi.stream_seq + 1
        )
        self.epoch[fragment] = max(self.epoch[fragment], quasi.epoch)

    def prune(self, fragment: str, below: int) -> int:
        """Compact stream state below a watermark; returns entries dropped.

        Drops archived quasi-transactions with ``stream_seq < below``
        (their source txns leave the dedup set too — ordered admission
        already rejects anything under the cursor before consulting
        it), plus admission-buffer strays the cursor has passed.  The
        caller guarantees ``below`` is covered by this replica's
        durable checkpoint, so the replica can still serve any rejoiner
        from checkpoint + retained tail.
        """
        floor = max(below, self.pruned_below.get(fragment, 0))
        entries = self.archive.get(fragment)
        dropped = 0
        if entries is not None:
            for seq in [s for s in entries if s < floor]:
                self.installed_sources.discard(entries.pop(seq).source_txn)
                dropped += 1
        parked = self.buffer.get(fragment)
        if parked:
            cursor = (self.epoch[fragment], self.next_expected[fragment])
            for key in [k for k in parked if k < cursor]:
                del parked[key]
                dropped += 1
        self.pruned_below[fragment] = floor
        return dropped

    def forget(self, fragment: str) -> None:
        """Drop what a replay rebuilds: cursor, epoch and archive."""
        for quasi in self.archive.pop(fragment, {}).values():
            self.installed_sources.discard(quasi.source_txn)
        self.next_expected.pop(fragment, None)
        self.epoch.pop(fragment, None)
        self.pruned_below.pop(fragment, None)

    def park_cut(self, fragment: str, epoch: int, start: int) -> None:
        """Remember an epoch cut whose start the cursor has not reached."""
        cuts = self.pending_cut.setdefault(fragment, [])
        if (epoch, start) not in cuts:
            cuts.append((epoch, start))
            cuts.sort()

    def maybe_cut(self, fragment: str) -> bool:
        """Activate a parked epoch cut once the cursor reaches its start.

        Returns True when the earliest applicable cut activated (the
        fragment's epoch advanced), so the caller can re-drain the
        admission buffer for new-epoch entries parked behind it.  Cuts
        a later epoch jump has superseded are discarded.
        """
        cuts = self.pending_cut.get(fragment)
        while cuts:
            epoch, start = cuts[0]
            if self.epoch[fragment] >= epoch:
                cuts.pop(0)
                continue
            if self.next_expected[fragment] < start:
                return False
            self.epoch[fragment] = epoch
            cuts.pop(0)
            if not cuts:
                del self.pending_cut[fragment]
            return True
        if cuts is not None:
            del self.pending_cut[fragment]
        return False

    def clear(self) -> None:
        """Crash-stop: the whole log is volatile."""
        self.next_expected.clear()
        self.epoch.clear()
        self.buffer.clear()
        self.installed_sources.clear()
        self.archive.clear()
        self.arrived_at.clear()
        self.pruned_below.clear()
        self.pending_cut.clear()
