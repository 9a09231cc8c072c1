"""A shared/exclusive lock table with FIFO queuing and upgrades."""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass


class LockMode(enum.Enum):
    """Lock modes: shared (read) and exclusive (write)."""

    S = "S"
    X = "X"


def _compatible(held: LockMode, requested: LockMode) -> bool:
    return held is LockMode.S and requested is LockMode.S


@dataclass
class _Waiter:
    txn: str
    mode: LockMode


class LockTable:
    """Per-object S/X locks with strict-FIFO waiting.

    Grant policy: a request is granted immediately iff it is compatible
    with all current holders *and* no conflicting request is already
    queued (strict FIFO — prevents reader streams from starving a
    queued writer).  ``S -> X`` upgrade is granted when the requester is
    the sole holder; otherwise it waits at the *front* of the queue
    (upgrades get priority since the requester already blocks others).

    A release costs what the transaction touched, not what the table
    has seen: ``_touched`` indexes the objects each transaction holds
    or waits on.  Only those can change when it lets go — between
    calls the front of every queue is blocked, so draining any other
    object grants nothing.
    """

    def __init__(self) -> None:
        self._holders: dict[str, dict[str, LockMode]] = defaultdict(dict)
        self._queue: dict[str, list[_Waiter]] = defaultdict(list)
        # Objects in first-locked order: the order a release visits a
        # transaction's objects in, and so the order of its grants.
        self._rank: dict[str, int] = {}
        self._touched: dict[str, set[str]] = defaultdict(set)
        self.grants = 0
        self.waits = 0
        self.upgrades = 0

    # -- acquisition ------------------------------------------------------

    def acquire(self, txn: str, obj: str, mode: LockMode) -> bool:
        """Try to acquire; returns True if granted, else queues ``txn``.

        Re-requesting a mode already held (or S while holding X) is a
        no-op grant.
        """
        holders = self._holders[obj]
        held = holders.get(txn)
        if held is LockMode.X or held is mode:
            return True
        self._rank.setdefault(obj, len(self._rank))
        self._touched[txn].add(obj)
        if held is LockMode.S and mode is LockMode.X:
            others = [t for t in holders if t != txn]
            if not others:
                holders[txn] = LockMode.X
                self.upgrades += 1
                return True
            # Upgrade waits at the front of the queue.
            self._queue[obj].insert(0, _Waiter(txn, mode))
            self.waits += 1
            return False
        queue = self._queue[obj]
        compatible_with_holders = all(
            _compatible(m, mode) for t, m in holders.items() if t != txn
        )
        if compatible_with_holders and not queue:
            holders[txn] = mode
            self.grants += 1
            return True
        queue.append(_Waiter(txn, mode))
        self.waits += 1
        return False

    # -- release -----------------------------------------------------------

    def release_all(self, txn: str) -> list[tuple[str, str, LockMode]]:
        """Release every lock held by ``txn`` and drop its queued requests.

        Returns newly granted requests as ``(txn, obj, mode)`` triples,
        in grant order, so the scheduler can resume those transactions.
        """
        granted: list[tuple[str, str, LockMode]] = []
        for obj in self._objects_of(txn):
            self._holders[obj].pop(txn, None)
            queue = self._queue[obj]
            queue[:] = [w for w in queue if w.txn != txn]
            granted.extend(self._drain(obj))
        self._touched.pop(txn, None)
        return granted

    def _objects_of(self, txn: str) -> list[str]:
        """Objects ``txn`` holds or waits on, in first-locked order."""
        return sorted(self._touched.get(txn, ()), key=self._rank.__getitem__)

    def _drain(self, obj: str) -> list[tuple[str, str, LockMode]]:
        """Grant queued requests from the front while compatible."""
        granted: list[tuple[str, str, LockMode]] = []
        holders = self._holders[obj]
        queue = self._queue[obj]
        while queue:
            waiter = queue[0]
            held = holders.get(waiter.txn)
            if held is LockMode.X or held is waiter.mode:
                # Already covered (e.g. a queued S behind the same
                # transaction's now-granted X upgrade): never overwrite
                # a held X with a weaker mode.
                queue.pop(0)
                granted.append((waiter.txn, obj, held))
                continue
            if held is LockMode.S and waiter.mode is LockMode.X:
                others = [t for t in holders if t != waiter.txn]
                if others:
                    break
                holders[waiter.txn] = LockMode.X
                self.upgrades += 1
            else:
                compatible = all(
                    _compatible(m, waiter.mode)
                    for t, m in holders.items()
                    if t != waiter.txn
                )
                if not compatible:
                    break
                holders[waiter.txn] = waiter.mode
                self.grants += 1
            queue.pop(0)
            granted.append((waiter.txn, obj, waiter.mode))
        return granted

    # -- introspection (deadlock detection needs these) --------------------

    def holders_of(self, obj: str) -> dict[str, LockMode]:
        """Current holders of ``obj`` (copy)."""
        return dict(self._holders.get(obj, ()))

    def queued_for(self, obj: str) -> list[tuple[str, LockMode]]:
        """Queued waiters for ``obj``, front first."""
        return [(w.txn, w.mode) for w in self._queue.get(obj, ())]

    def blockers_of(self, txn: str, obj: str, mode: LockMode) -> set[str]:
        """Transactions ``txn`` is waiting on for ``obj``.

        Includes conflicting holders and conflicting waiters queued
        ahead of ``txn`` (FIFO order can itself induce waiting).
        """
        blockers: set[str] = set()
        for holder, held in self._holders.get(obj, {}).items():
            if holder != txn and not _compatible(held, mode):
                blockers.add(holder)
        for waiter in self._queue.get(obj, ()):
            if waiter.txn == txn:
                break
            if not (_compatible(waiter.mode, mode)):
                blockers.add(waiter.txn)
        return blockers

    def held_by(self, txn: str) -> list[tuple[str, LockMode]]:
        """All locks currently held by ``txn``."""
        return [
            (obj, self._holders[obj][txn])
            for obj in self._objects_of(txn)
            if txn in self._holders[obj]
        ]
