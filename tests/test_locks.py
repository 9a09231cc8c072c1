"""Tests for the lock table and waits-for graph."""

from hypothesis import given, strategies as st

from repro.cc.deadlock import WaitsForGraph, choose_victim
from repro.cc.locks import LockMode, LockTable, _compatible


class TestLockTable:
    def test_shared_locks_compatible(self):
        table = LockTable()
        assert table.acquire("T1", "x", LockMode.S)
        assert table.acquire("T2", "x", LockMode.S)
        assert table.holders_of("x") == {
            "T1": LockMode.S,
            "T2": LockMode.S,
        }

    def test_exclusive_blocks_shared(self):
        table = LockTable()
        assert table.acquire("T1", "x", LockMode.X)
        assert not table.acquire("T2", "x", LockMode.S)
        assert table.queued_for("x") == [("T2", LockMode.S)]

    def test_shared_blocks_exclusive(self):
        table = LockTable()
        assert table.acquire("T1", "x", LockMode.S)
        assert not table.acquire("T2", "x", LockMode.X)

    def test_reacquire_held_mode_is_noop_grant(self):
        table = LockTable()
        assert table.acquire("T1", "x", LockMode.S)
        assert table.acquire("T1", "x", LockMode.S)
        assert table.acquire("T1", "y", LockMode.X)
        assert table.acquire("T1", "y", LockMode.S)  # X covers S
        assert table.acquire("T1", "y", LockMode.X)

    def test_upgrade_sole_holder(self):
        table = LockTable()
        assert table.acquire("T1", "x", LockMode.S)
        assert table.acquire("T1", "x", LockMode.X)
        assert table.holders_of("x") == {"T1": LockMode.X}

    def test_upgrade_with_other_holders_waits_at_front(self):
        table = LockTable()
        table.acquire("T1", "x", LockMode.S)
        table.acquire("T2", "x", LockMode.S)
        assert not table.acquire("T3", "x", LockMode.X)
        assert not table.acquire("T1", "x", LockMode.X)  # upgrade
        assert table.queued_for("x")[0] == ("T1", LockMode.X)

    def test_fifo_prevents_reader_starvation(self):
        table = LockTable()
        table.acquire("R1", "x", LockMode.S)
        assert not table.acquire("W", "x", LockMode.X)
        # A new reader queues behind the writer rather than overtaking.
        assert not table.acquire("R2", "x", LockMode.S)
        assert [t for t, _ in table.queued_for("x")] == ["W", "R2"]

    def test_release_grants_from_queue_in_order(self):
        table = LockTable()
        table.acquire("T1", "x", LockMode.X)
        table.acquire("T2", "x", LockMode.S)
        table.acquire("T3", "x", LockMode.S)
        table.acquire("T4", "x", LockMode.X)
        granted = table.release_all("T1")
        # Both compatible readers granted, the writer stays queued.
        assert [(t, m) for t, _o, m in granted] == [
            ("T2", LockMode.S),
            ("T3", LockMode.S),
        ]
        assert table.queued_for("x") == [("T4", LockMode.X)]

    def test_release_grants_upgrade_when_sole(self):
        table = LockTable()
        table.acquire("T1", "x", LockMode.S)
        table.acquire("T2", "x", LockMode.S)
        table.acquire("T1", "x", LockMode.X)  # queued upgrade
        granted = table.release_all("T2")
        assert granted == [("T1", "x", LockMode.X)]
        assert table.holders_of("x") == {"T1": LockMode.X}

    def test_release_drops_queued_requests(self):
        table = LockTable()
        table.acquire("T1", "x", LockMode.X)
        table.acquire("T2", "x", LockMode.S)
        table.release_all("T2")
        assert table.queued_for("x") == []

    def test_blockers_of_includes_queued_ahead(self):
        table = LockTable()
        table.acquire("T1", "x", LockMode.S)
        table.acquire("W1", "x", LockMode.X)
        table.acquire("R2", "x", LockMode.S)
        blockers = table.blockers_of("R2", "x", LockMode.S)
        assert blockers == {"W1"}  # T1's S is compatible; W1 is not

    def test_blockers_of_excludes_self(self):
        table = LockTable()
        table.acquire("T1", "x", LockMode.S)
        table.acquire("T2", "x", LockMode.S)
        blockers = table.blockers_of("T1", "x", LockMode.X)
        assert blockers == {"T2"}

    def test_held_by(self):
        table = LockTable()
        table.acquire("T1", "x", LockMode.S)
        table.acquire("T1", "y", LockMode.X)
        held = dict(table.held_by("T1"))
        assert held == {"x": LockMode.S, "y": LockMode.X}


class TestWaitsForGraph:
    def test_simple_cycle(self):
        graph = WaitsForGraph()
        graph.block("T1", {"T2"})
        graph.block("T2", {"T1"})
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {"T1", "T2"}

    def test_no_cycle(self):
        graph = WaitsForGraph()
        graph.block("T1", {"T2"})
        graph.block("T2", {"T3"})
        assert graph.find_cycle() is None

    def test_clear_waiting_keeps_incoming_edges(self):
        """Regression: a resumed transaction still holds its locks.

        T1 waits for T2.  T2 resumes (clear_waiting), then blocks on
        something T1 holds — the T1 -> T2 edge must have survived for
        the cycle to be visible.
        """
        graph = WaitsForGraph()
        graph.block("T1", {"T2"})
        graph.clear_waiting("T2")  # T2 resumed but still holds locks
        graph.block("T2", {"T1"})
        assert graph.find_cycle() is not None

    def test_remove_erases_both_sides(self):
        graph = WaitsForGraph()
        graph.block("T1", {"T2"})
        graph.block("T2", {"T1"})
        graph.remove("T2")  # T2 finished and released everything
        assert graph.find_cycle() is None

    def test_choose_victim_is_youngest(self):
        cycle = ["T1", "T2", "T3", "T1"]
        start_seq = {"T1": 5, "T2": 9, "T3": 1}
        assert choose_victim(cycle, start_seq) == "T2"

    def test_choose_victim_deterministic_on_tie(self):
        cycle = ["Ta", "Tb", "Ta"]
        start_seq = {"Ta": 3, "Tb": 3}
        assert choose_victim(cycle, start_seq) == "Tb"


class TestDrainRegressions:
    """Pin the queue-drain bugs the property tests flushed out."""

    def test_queued_s_behind_own_x_does_not_downgrade(self):
        # T0 holds S; T1 queues X, then queues S behind its own X.
        # When T0 releases, T1's X upgrade is granted — draining T1's
        # stale S entry must NOT overwrite the X with the weaker mode.
        table = LockTable()
        table.acquire("T0", "y", LockMode.S)
        assert not table.acquire("T1", "y", LockMode.X)
        assert not table.acquire("T1", "y", LockMode.S)
        granted = table.release_all("T0")
        assert table.holders_of("y") == {"T1": LockMode.X}
        assert table.queued_for("y") == []
        assert ("T1", "y", LockMode.X) in granted

    def test_queued_duplicate_same_mode_collapses(self):
        table = LockTable()
        table.acquire("T0", "y", LockMode.X)
        assert not table.acquire("T1", "y", LockMode.S)
        assert not table.acquire("T1", "y", LockMode.S)
        table.release_all("T0")
        assert table.holders_of("y") == {"T1": LockMode.S}
        assert table.queued_for("y") == []


class ScanningLockTable(LockTable):
    """The oracle: release and introspection by scanning every object
    the table has seen, verbatim from before the per-transaction index."""

    def release_all(self, txn):
        granted = []
        for obj in list(self._holders):
            if txn in self._holders[obj]:
                del self._holders[obj][txn]
            queue = self._queue[obj]
            queue[:] = [w for w in queue if w.txn != txn]
            granted.extend(self._drain(obj))
        return granted

    def _drain(self, obj):
        granted = []
        holders = self._holders[obj]
        queue = self._queue[obj]
        while queue:
            waiter = queue[0]
            held = holders.get(waiter.txn)
            if held is LockMode.X or held is waiter.mode:
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

    def held_by(self, txn):
        return [
            (obj, holders[txn])
            for obj, holders in self._holders.items()
            if txn in holders
        ]


TXNS = ["T0", "T1", "T2", "T3"]
OBJS = ["w", "x", "y", "z"]
lock_steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(TXNS),
            st.sampled_from(OBJS),
            st.sampled_from(list(LockMode)),
        ),
        st.sampled_from(TXNS),  # release_all
    ),
    max_size=40,
)


class TestIndexedRelease:
    """``release_all`` visits what the transaction touched, and nothing
    observable tells it from the scan of the whole table."""

    @given(lock_steps)
    def test_indexed_release_matches_the_scanning_oracle(self, steps):
        table, oracle = LockTable(), ScanningLockTable()
        for step in steps:
            if isinstance(step, tuple):
                assert table.acquire(*step) == oracle.acquire(*step), step
            else:
                # Same grants, in the same order.
                assert table.release_all(step) == oracle.release_all(step)
            for obj in OBJS:
                assert table.holders_of(obj) == oracle.holders_of(obj)
                assert table.queued_for(obj) == oracle.queued_for(obj)
                for txn in TXNS:
                    for mode in LockMode:
                        assert table.blockers_of(
                            txn, obj, mode
                        ) == oracle.blockers_of(txn, obj, mode)
            for txn in TXNS:
                assert table.held_by(txn) == oracle.held_by(txn)
            assert (table.grants, table.waits, table.upgrades) == (
                oracle.grants, oracle.waits, oracle.upgrades
            )

    def test_release_drains_only_what_the_transaction_touched(self):
        table = LockTable()
        for i in range(10_000):
            table.acquire(f"other{i % 7}", f"o{i}", LockMode.X)
        table.acquire("T", "mine", LockMode.X)
        assert not table.acquire("W", "mine", LockMode.S)
        drained = []
        drain = table._drain
        table._drain = lambda obj: drained.append(obj) or drain(obj)
        assert table.release_all("T") == [("W", "mine", LockMode.S)]
        assert drained == ["mine"]

    def test_introspection_does_not_grow_the_table(self):
        table = LockTable()
        table.acquire("T", "x", LockMode.X)
        assert table.holders_of("never") == {}
        assert table.queued_for("never") == []
        assert table.blockers_of("T", "never", LockMode.X) == set()
        assert list(table._holders) == ["x"] and "never" not in table._queue
