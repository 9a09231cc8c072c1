"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.obs import Tracer, taxonomy
from repro.sim import SeededRng, Simulator


class TestScheduling:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(3.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]
        assert sim.now == 7.5

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

    def test_callback_can_schedule_more(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert fired == [1]

    def test_advance_to_backwards_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.advance_to(1.0)

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_error_names_the_looping_events(self):
        """The exhaustion error must identify the probable culprit by
        reporting the most frequent recent event labels."""
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop, label="hot retransmit loop")
            sim.schedule(0.0, lambda: None)  # unlabelled bystander

        sim.schedule(0.0, loop, label="hot retransmit loop")
        with pytest.raises(SimulationError) as exc:
            sim.run(max_events=500)
        message = str(exc.value)
        assert "max_events=500" in message
        assert "'hot retransmit loop'" in message
        assert "<unlabelled>" in message

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_fired_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending == 1

    def test_handle_exposes_time_and_label(self):
        sim = Simulator()
        handle = sim.schedule(3.0, lambda: None, label="hello")
        assert handle.time == 3.0
        assert handle.label == "hello"


class TestTombstoneCompaction:
    """Cancelled events must not accumulate in the queue structures."""

    def test_cancel_heavy_workload_bounded_queue(self):
        sim = Simulator()
        # A chaos-style retransmit pattern: arm a timer, cancel it on
        # the (simulated) ack, repeat.  Without compaction the queue
        # grows with the cancellation history; with it, queue_len stays
        # within a small factor of the live event count.
        peak = 0
        for round_no in range(50):
            handles = [
                sim.schedule(100.0 + round_no, lambda: None, label="retx")
                for _ in range(100)
            ]
            for handle in handles:
                handle.cancel()
            peak = max(peak, sim.queue_len)
        assert sim.pending == 0
        # 5000 cancellations happened; the structures never held more
        # than a compaction window's worth of tombstones.
        assert peak < 500
        assert sim.queue_len < 200

    def test_live_events_survive_compaction(self):
        sim = Simulator()
        fired = []
        keep = [
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
            for i in range(10)
        ]
        doomed = [sim.schedule(5.0, lambda: fired.append("X"))
                  for _ in range(300)]
        for handle in doomed:
            handle.cancel()  # triggers compaction mid-stream
        assert sim.pending == len(keep)
        sim.run()
        assert fired == list(range(10))

    def test_cancel_during_run_compacts_safely(self):
        sim = Simulator()
        fired = []
        handles = []

        def cancel_wave():
            for handle in handles:
                handle.cancel()

        handles.extend(
            sim.schedule(10.0, lambda: fired.append("doomed"), label="d")
            for _ in range(200)
        )
        sim.schedule(1.0, cancel_wave)
        sim.schedule(20.0, lambda: fired.append("end"))
        sim.run()
        assert fired == ["end"]


class TestScheduleAtDrift:
    """schedule_at must tolerate epsilon-negative float deltas."""

    def test_accumulated_drift_does_not_crash(self):
        sim = Simulator()
        # Advance the clock through many unequal float steps, then
        # schedule at a time computed by a *different* summation order —
        # the classic way t == now comes out epsilon-negative.
        steps = [0.1] * 7 + [0.3] * 3
        fired = []
        for step in steps * 40:
            sim.schedule(step, lambda: None)
        sim.run()
        target = sum(steps * 40)  # float-sums differently than sim.now
        assert target != sim.now or True  # representative of drift
        sim.schedule_at(sim.now - 1e-12, lambda: fired.append("a"))
        sim.schedule_at(target, lambda: fired.append("b"))
        sim.run()
        assert "a" in fired and "b" in fired

    def test_epsilon_negative_clamped_to_now(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert sim.now == 100.0
        fired = []
        sim.schedule_at(
            100.0 - 1e-11, lambda: fired.append(sim.now)
        )  # epsilon in the past: clamped, not an error
        sim.run()
        assert fired == [100.0]

    def test_fires_at_exactly_the_time_given(self):
        # now + (time - now) rounds an ulp below 7.05 here, which would
        # put the second event ahead of the first.
        sim = Simulator()
        order = []
        sim.schedule_at(
            0.05, lambda: sim.schedule(7.0, lambda: order.append("first"))
        )
        sim.schedule_at(
            1.2493307495167518,
            lambda: sim.schedule_at(0.05 + 7.0, lambda: order.append(sim.now)),
        )
        sim.run()
        assert order == ["first", 0.05 + 7.0]

    def test_genuinely_past_times_still_rejected(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(99.0, lambda: None)


class TestWheelScheduler:
    """Behaviour specific to the calendar-queue core."""

    def test_far_timers_overflow_and_fire(self):
        sim = Simulator(wheel_slots=16, wheel_width=1.0)
        fired = []
        sim.schedule(2.0, lambda: fired.append("near"))
        sim.schedule(1000.0, lambda: fired.append("far"))
        sim.schedule(10_000.0, lambda: fired.append("farther"))
        sim.run()
        assert fired == ["near", "far", "farther"]
        assert sim.now == 10_000.0

    def test_callback_scheduling_into_current_bucket(self):
        sim = Simulator(wheel_width=10.0)
        fired = []

        def first():
            fired.append("first")
            # Lands later inside the bucket currently being processed.
            sim.schedule(3.0, lambda: fired.append("same-bucket"))
            sim.schedule(0.0, lambda: fired.append("same-instant"))

        sim.schedule(2.0, first)
        sim.schedule(4.0, lambda: fired.append("pre-existing"))
        sim.run()
        assert fired == ["first", "same-instant", "pre-existing",
                         "same-bucket"]

    def test_until_mid_bucket_preserves_leftovers(self):
        sim = Simulator(wheel_width=10.0)
        fired = []
        for t in (1.0, 2.0, 3.0, 8.0, 9.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run(until=3.5)  # stop inside the first bucket
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 3.5
        assert sim.pending == 2
        sim.schedule(0.0, lambda: fired.append("immediate"))
        sim.run()
        assert fired == [1.0, 2.0, 3.0, "immediate", 8.0, 9.0]

    def test_rejects_bad_wheel_geometry(self):
        with pytest.raises(SimulationError):
            Simulator(wheel_width=0.0)
        with pytest.raises(SimulationError):
            Simulator(wheel_slots=1)

    def test_heap_fallback_is_gone(self):
        # The REPRO_SIM_SCHEDULER=heap escape hatch was removed after
        # its deprecation release; the constructor no longer takes a
        # scheduler selector at all.
        with pytest.raises(TypeError):
            Simulator(scheduler="heap")


class TestTrace:
    def test_tracer_sees_fired_events(self):
        sim = Simulator()
        tracer = Tracer(enabled=True, exclude=frozenset())
        sim.tracer = tracer
        sim.schedule(1.0, lambda: None, label="one")
        sim.schedule(2.0, lambda: None, label="two")
        sim.run()
        fired = [
            (event.time, event.fields["label"])
            for event in tracer.events(taxonomy.SIM_FIRE)
        ]
        assert fired == [(1.0, "one"), (2.0, "two")]

    def test_sim_fire_excluded_by_default(self):
        sim = Simulator()
        tracer = Tracer(enabled=True)
        sim.tracer = tracer
        sim.schedule(1.0, lambda: None, label="one")
        sim.run()
        assert len(tracer) == 0

    def test_disabled_tracer_records_nothing(self):
        sim = Simulator()
        tracer = Tracer(exclude=frozenset())
        sim.tracer = tracer
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(tracer) == 0

    def test_fire_trace_sampling(self):
        sim = Simulator()
        tracer = Tracer(enabled=True, exclude=frozenset())
        sim.tracer = tracer
        sim.fire_trace_every = 10
        for i in range(100):
            sim.schedule(float(i), lambda: None, label="tick")
        sim.run()
        assert sim.events_fired == 100
        assert len(tracer.events(taxonomy.SIM_FIRE)) == 10  # every 10th

    def test_tracer_clock_follows_sim(self):
        sim = Simulator()
        tracer = Tracer()
        sim.tracer = tracer
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert tracer.clock is not None
        assert tracer.clock() == 5.0


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a, b = SeededRng(42), SeededRng(42)
        assert [a.random() for _ in range(20)] == [
            b.random() for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a, b = SeededRng(1), SeededRng(2)
        assert [a.random() for _ in range(20)] != [
            b.random() for _ in range(20)
        ]

    def test_fork_is_deterministic(self):
        a, b = SeededRng(42), SeededRng(42)
        fa, fb = a.fork("x"), b.fork("x")
        assert [fa.random() for _ in range(10)] == [
            fb.random() for _ in range(10)
        ]

    def test_forks_are_distinct(self):
        rng = SeededRng(42)
        f1, f2 = rng.fork("x"), rng.fork("x")
        assert [f1.random() for _ in range(10)] != [
            f2.random() for _ in range(10)
        ]

    def test_zipf_index_in_range(self):
        rng = SeededRng(1)
        for _ in range(200):
            assert 0 <= rng.zipf_index(7, 1.2) < 7

    def test_zipf_skew_prefers_low_indices(self):
        rng = SeededRng(1)
        draws = [rng.zipf_index(10, 1.5) for _ in range(2000)]
        assert draws.count(0) > draws.count(9)

    def test_zipf_zero_skew_uniformish(self):
        rng = SeededRng(1)
        draws = [rng.zipf_index(4, 0.0) for _ in range(4000)]
        for value in range(4):
            assert 800 < draws.count(value) < 1200

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            SeededRng(1).zipf_index(0)

    def test_exponential_positive_with_roughly_right_mean(self):
        rng = SeededRng(3)
        draws = [rng.exponential(10.0) for _ in range(5000)]
        assert all(d >= 0 for d in draws)
        assert 9.0 < sum(draws) / len(draws) < 11.0

    def test_bernoulli_extremes(self):
        rng = SeededRng(4)
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))
