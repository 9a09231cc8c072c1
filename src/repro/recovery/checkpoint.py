"""Durable per-fragment checkpoints.

A :class:`FragmentCheckpoint` is a versioned snapshot of one fragment's
objects plus the stream cursor the snapshot is current through: every
quasi-transaction with ``stream_seq < upto`` (in epochs ``<= epoch``)
is reflected in the snapshot values.  Checkpoints live in a
:class:`CheckpointStore`, which sits *beside* the WAL in the crash-stop
contract: durable, never cleared by :meth:`DatabaseNode.crash`.

Recovery restores the newest checkpoint per fragment and replays only
the WAL suffix past its cursor; catch-up ships a checkpoint to a
rejoiner whose cursor fell below a donor's compaction horizon.  Both
paths end in :func:`apply_checkpoint`, which fast-forwards the stream
cursor monotonically so ordered admission keeps dropping duplicates of
the snapshotted prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.replication.admission import drain_buffer
from repro.storage.values import Version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import DatabaseNode
    from repro.core.system import FragmentedDatabase


@dataclass(frozen=True, slots=True)
class FragmentCheckpoint:
    """Snapshot of one fragment's objects at a stream cursor.

    ``upto`` is exclusive: the snapshot reflects stream sequences
    ``[0, upto)``.  ``origin`` records which node built it (a shipped
    checkpoint keeps its builder's name) and ``taken_at`` the sim time,
    both for tracing only — correctness depends only on
    ``(epoch, upto)`` and the snapshot versions.
    """

    fragment: str
    upto: int
    epoch: int
    snapshot: dict[str, Version]
    origin: str
    taken_at: float

    @property
    def cursor(self) -> tuple[int, int]:
        """The ``(epoch, upto)`` point this checkpoint is current through."""
        return (self.epoch, self.upto)


class CheckpointStore:
    """A node's durable checkpoint shelf: the newest checkpoint per fragment.

    Durability contract mirrors the WAL: survives ``crash()``, touched
    only through :meth:`put` / :meth:`get`.  Only the newest checkpoint
    per fragment is retained — an older one is strictly redundant with
    a newer one plus nothing, which is what keeps checkpoint storage
    itself bounded.
    """

    def __init__(self, node: str = "") -> None:
        self.node = node
        self._latest: dict[str, FragmentCheckpoint] = {}
        self.puts = 0
        self.restores = 0

    def put(self, ckpt: FragmentCheckpoint) -> bool:
        """Keep ``ckpt`` if it is newer than the stored one; True if kept."""
        current = self._latest.get(ckpt.fragment)
        if current is not None and ckpt.cursor <= current.cursor:
            return False
        self._latest[ckpt.fragment] = ckpt
        self.puts += 1
        return True

    def get(self, fragment: str) -> FragmentCheckpoint | None:
        """The newest checkpoint for ``fragment``, if any."""
        return self._latest.get(fragment)

    def discard(self, fragment: str) -> bool:
        """Drop the checkpoint for ``fragment``; True if one was held.

        Two sanctioned callers: a replica leaving the fragment's set
        (its frozen snapshot must not resurrect at recovery), and a
        demoted ex-home whose checkpoint covers part of a failover
        cut's discarded suffix (the snapshot folds stale writes in, so
        it cannot seed any rebuild).
        """
        return self._latest.pop(fragment, None) is not None

    def all(self) -> list[FragmentCheckpoint]:
        """Every stored checkpoint, ordered by fragment name."""
        return [self._latest[f] for f in sorted(self._latest)]

    def object_count(self) -> int:
        """Total snapshot objects held (the retained-bytes gauge input)."""
        return sum(len(ckpt.snapshot) for ckpt in self._latest.values())

    def __len__(self) -> int:
        return len(self._latest)


def build_checkpoint(
    system: "FragmentedDatabase",
    node: "DatabaseNode",
    fragment: str,
) -> FragmentCheckpoint:
    """Snapshot ``fragment``'s objects at ``node``'s current cursor."""
    streams = node.streams
    objects = system.fragment_objects(fragment, node.store)
    snapshot = node.store.version_snapshot(objects)
    return FragmentCheckpoint(
        fragment=fragment,
        upto=streams.next_expected[fragment],
        epoch=streams.epoch[fragment],
        snapshot=snapshot,
        origin=node.name,
        taken_at=system.sim.now,
    )


def apply_checkpoint(
    node: "DatabaseNode",
    ckpt: FragmentCheckpoint,
    persist: bool = True,
) -> bool:
    """Install a checkpoint into a replica, fast-forwarding its cursor.

    Returns True if the replica's cursor advanced (or matched) — i.e.
    the snapshot was installed.  A replica already past the checkpoint
    keeps its newer values, and in the same epoch gains the objects it
    lacks — nothing past the checkpoint wrote those (only a demoted
    replica lacks any, when live traffic overtook its snapshot).
    ``persist`` stores the checkpoint durably so the receiver can
    itself restore from it (and serve it onward) after a later crash;
    recovery's own restore passes ``persist=False`` because the
    checkpoint is already on the shelf.

    Always ends with a buffer drain: the fast-forwarded cursor may make
    previously-gapped buffered quasi-transactions contiguous.
    """
    streams = node.streams
    fragment = ckpt.fragment
    current = (streams.epoch[fragment], streams.next_expected[fragment])
    if persist:
        node.checkpoints.put(ckpt)
    applied = ckpt.cursor >= current
    if applied:
        for name, version in ckpt.snapshot.items():
            node.store.install(name, version)
        streams.next_expected[fragment] = max(
            streams.next_expected[fragment], ckpt.upto
        )
        streams.epoch[fragment] = max(streams.epoch[fragment], ckpt.epoch)
        # The snapshot subsumes every stream slot below ``upto``; compact
        # them so ``pruned_below`` marks the coverage floor.  Catch-up
        # paths that dedup by source txn rather than cursor (corrective
        # M0 replay) consult this floor — after a crash the WAL suffix
        # no longer names the snapshotted prefix's txns, so the floor is
        # the only record that they are already reflected here.
        streams.prune(fragment, ckpt.upto)
        node.checkpoints.restores += 1
    elif ckpt.epoch == current[0]:
        for name, version in ckpt.snapshot.items():
            if not node.store.exists(name):
                node.store.install(name, version)
    drain_buffer(node, fragment)
    return applied
