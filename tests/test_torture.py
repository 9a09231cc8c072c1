"""Randomized movement-protocol torture tests.

These found four real protocol bugs during development (commit after
token departure, quasi-transactions lost to deadlock victimhood,
resync blind to prepared-but-uncommitted transactions, resync resuming
below the token's high-water mark) — they stay here to keep those
fixed.  They run the nemesis under :data:`MOVEMENT_TORTURE`: moves and
partitions only, no message faults.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.audit import _KNOWN_PROTOCOLS
from repro.analysis.nemesis import (
    GUARANTEES,
    MOVEMENT_TORTURE,
    PROTOCOLS,
    RUNNABLE,
    run_nemesis,
)

SAFE_PROTOCOLS = ["majority", "with-data", "with-seqno"]


def torture(seed, protocol):
    return run_nemesis(seed, protocol, MOVEMENT_TORTURE)


class TestGuaranteeMatrix:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        protocol=st.sampled_from(SAFE_PROTOCOLS),
    )
    def test_safe_protocols_preserve_both_properties(self, seed, protocol):
        result = torture(seed, protocol)
        assert result.mutually_consistent, (protocol, seed)
        assert result.fragmentwise, (protocol, seed)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_corrective_preserves_mutual_consistency(self, seed):
        result = torture(seed, "corrective")
        assert result.mutually_consistent, seed

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        protocol=st.sampled_from(list(PROTOCOLS)),
    )
    def test_all_runs_terminate_cleanly(self, seed, protocol):
        result = torture(seed, protocol)
        assert result.submitted == 15
        assert 0 <= result.committed <= result.submitted

    def test_unprotected_moves_do_break_things(self):
        """The hazard is real: "none" must violate something somewhere."""
        mc_breaks = 0
        fw_breaks = 0
        for seed in range(30):
            result = torture(seed, "none")
            mc_breaks += not result.mutually_consistent
            fw_breaks += not result.fragmentwise
        assert mc_breaks > 0
        assert fw_breaks > 0

    def test_corrective_does_sacrifice_fragmentwise(self):
        fw_breaks = sum(
            not torture(seed, "corrective").fragmentwise
            for seed in range(30)
        )
        assert fw_breaks > 0

    def test_guarantee_table_is_complete(self):
        assert set(GUARANTEES) == set(RUNNABLE)
        assert set(PROTOCOLS) == set(RUNNABLE) - {"fixed-agents"}
        # The auditor's copy, which infers a protocol from a run label.
        assert _KNOWN_PROTOCOLS == set(GUARANTEES)
