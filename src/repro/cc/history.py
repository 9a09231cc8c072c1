"""Committed-transaction records and the global history recorder.

The serialization-graph constructions of the paper's appendix
(Definitions 8.2 and 8.3) are computed *after the fact* from what
actually happened in a run.  This module defines the facts we record:

* :class:`CommittedTxn` — one transaction committed at its home node,
  with the exact versions it read (reads-from) and the versions it
  produced;
* :class:`InstallRecord` — one quasi-transaction installed at one
  remote replica (with local install order preserved).

One :class:`HistoryRecorder` is shared by every node in a simulated
system; all checkers (:mod:`repro.core.gsg`,
:mod:`repro.core.properties`) consume it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class ReadObservation:
    """A read: object name plus the identity of the version observed."""

    obj: str
    writer: str
    version_no: int


@dataclass(frozen=True)
class WriteRecord:
    """A committed write: object, the version number produced, the value."""

    obj: str
    version_no: int
    value: Any


@dataclass
class CommittedTxn:
    """One transaction committed at its home node.

    ``fragment`` is the fragment updated (None for read-only
    transactions).  ``stream_seq`` is the position in the fragment's
    update stream (the reliable-broadcast sequence number), None for
    read-only transactions.  ``agent`` is the initiating agent's name.
    ``epoch`` is the stream epoch the slot was minted in: a failover
    cut re-mints slots, so ``(epoch, stream_seq)`` names the slot for
    good where ``stream_seq`` alone does not.
    """

    txn_id: str
    agent: str
    fragment: str | None
    node: str
    commit_time: float
    stream_seq: int | None
    kind: str  # "update" | "readonly"
    reads: list[ReadObservation] = field(default_factory=list)
    writes: list[WriteRecord] = field(default_factory=list)
    epoch: int = 0

    @property
    def is_update(self) -> bool:
        """True if the transaction wrote anything."""
        return bool(self.writes)


@dataclass(frozen=True)
class InstallRecord:
    """A quasi-transaction installed at a (remote) replica."""

    node: str
    txn_id: str
    fragment: str
    stream_seq: int
    time: float


class HistoryRecorder:
    """Collects the global history of a run.

    The whole run by default: the serializability oracles read every
    commit and install.  A served system calls :meth:`keep_window`.
    """

    def __init__(self) -> None:
        self.committed: list[CommittedTxn] = []
        self.installs: list[InstallRecord] | deque[InstallRecord] = []
        self._by_id: dict[str, CommittedTxn] = {}
        # (txn_id, reason) pairs.
        self.aborted: list[tuple[str, str]] | deque[tuple[str, str]] = []
        self.rejected: list[tuple[str, str]] | deque[tuple[str, str]] = []
        self.orphaned: dict[str, str] = {}  # txn_id -> reason
        self._window: int | None = None
        self._trim_at = 0
        self._settled_below: Callable[[str], tuple[int, int]] | None = None

    def keep_window(
        self, window: int, settled_below: Callable[[str], tuple[int, int]]
    ) -> None:
        """Retain the latest ``window`` records of each log, not the run.

        With one exception, because ``orphaned`` must name *every*
        acknowledged write a failover cut throws away and the cut finds
        them by scanning ``committed``: an update leaves only once no
        cut can reach it — it is already orphaned, or its slot
        ``(epoch, stream_seq)`` is below ``settled_below(fragment)``.
        A home cut off from its replicas keeps acknowledging, so its
        commits stay, however many, until the cut has judged them.
        """
        self._window = window
        self._settled_below = settled_below
        self._trim_at = 2 * window
        self.installs = deque(self.installs, maxlen=window)
        self.aborted = deque(self.aborted, maxlen=window)
        self.rejected = deque(self.rejected, maxlen=window)

    @property
    def retained(self) -> int:
        """Records held across the four logs (the ``history.retained`` gauge)."""
        return (
            len(self.committed) + len(self.installs)
            + len(self.aborted) + len(self.rejected)
        )

    # -- recording ----------------------------------------------------------

    def record_commit(self, record: CommittedTxn) -> None:
        """Record a commit at its home node."""
        self.committed.append(record)
        self._by_id[record.txn_id] = record
        if self._window is not None and len(self.committed) >= self._trim_at:
            self._trim()

    def _trim(self) -> None:
        """Drop what is older than the window and settled (amortised:
        one pass per ``window`` commits)."""
        old = len(self.committed) - self._window
        floors: dict[str, tuple[int, int]] = {}
        kept: list[CommittedTxn] = []
        for record in self.committed[:old]:
            if record.stream_seq is not None and (
                record.txn_id not in self.orphaned
            ):
                floor = floors.get(record.fragment)
                if floor is None:
                    floor = floors[record.fragment] = self._settled_below(
                        record.fragment
                    )
                if (record.epoch, record.stream_seq) >= floor:
                    kept.append(record)
                    continue
            self._by_id.pop(record.txn_id, None)
        self.committed[:old] = kept
        self._trim_at = len(self.committed) + self._window

    def record_install(self, record: InstallRecord) -> None:
        """Record a quasi-transaction install at a replica."""
        self.installs.append(record)

    def record_abort(self, txn_id: str, reason: str) -> None:
        """Record a local abort (deadlock victim, body abort)."""
        self.aborted.append((txn_id, reason))

    def record_rejection(self, txn_id: str, reason: str) -> None:
        """Record an availability loss: the system refused the request."""
        self.rejected.append((txn_id, reason))

    def record_orphan(self, txn_id: str, reason: str) -> None:
        """Mark a committed transaction as discarded by a failover cut.

        The paper's Section 2 orphans made explicit: the transaction
        committed at its home node but its effects were declared lost
        by an epoch cut before propagating.  Serializability is judged
        over the *surviving* history — an orphan's stream slot is
        legitimately re-minted by the successor in the new epoch.
        """
        self.orphaned.setdefault(txn_id, reason)

    # -- queries ---------------------------------------------------------

    def transaction(self, txn_id: str) -> CommittedTxn:
        """Lookup by id; raises KeyError if unknown."""
        return self._by_id[txn_id]

    @property
    def surviving(self) -> list[CommittedTxn]:
        """Committed transactions minus failover orphans.

        Identical to ``committed`` (same list object, no copy) on runs
        without epoch cuts, so the common path costs nothing.
        """
        if not self.orphaned:
            return self.committed
        return [t for t in self.committed if t.txn_id not in self.orphaned]

    def observed_orphan(self, txn: CommittedTxn) -> bool:
        """True if any of the transaction's reads saw a discarded write.

        Such observations belong to the cut-off branch of history: the
        version they name was re-minted with a different value by the
        successor, so comparing them against surviving version numbers
        would fabricate dependencies that never existed.
        """
        if not self.orphaned:
            return False
        return any(read.writer in self.orphaned for read in txn.reads)

    def updates_of_fragment(self, fragment: str) -> list[CommittedTxn]:
        """The set ``U(F_i)`` of the paper, in stream order."""
        selected = [
            t for t in self.surviving
            if t.fragment == fragment and t.is_update
        ]
        selected.sort(key=lambda t: (t.stream_seq if t.stream_seq is not None
                                     else -1, t.commit_time))
        return selected

    def version_order(self) -> dict[str, list[tuple[int, str]]]:
        """Per object: committed ``(version_no, txn_id)`` in version order.

        This is the version order induced by each fragment's update
        stream, which all replicas install in the same order under FIFO
        broadcast.
        """
        order: dict[str, list[tuple[int, str]]] = defaultdict(list)
        for txn in self.surviving:
            for write in txn.writes:
                order[write.obj].append((write.version_no, txn.txn_id))
        for versions in order.values():
            versions.sort()
        return dict(order)

    def installs_at(self, node: str) -> list[InstallRecord]:
        """Install records at one node, in install order."""
        return [r for r in self.installs if r.node == node]

    # -- summary counters ----------------------------------------------------

    @property
    def commit_count(self) -> int:
        """Total committed transactions."""
        return len(self.committed)

    @property
    def update_count(self) -> int:
        """Committed update transactions."""
        return sum(1 for t in self.committed if t.is_update)
