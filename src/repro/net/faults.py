"""Seeded fault injection: a lossy, jittery, flaky network substrate.

The paper *assumes* a reliable FIFO broadcast (Section 3.2); the rest
of this repository implements that assumption as an explicit delivery
layer (:mod:`repro.net.reliable`) and this module supplies the hostile
substrate to earn it against.  A :class:`FaultPlan` describes every
fault a run should suffer — steady-state message loss, duplication and
latency jitter, time-windowed loss bursts, transient link flaps, and
scheduled crash/partition episodes — and a :class:`FaultInjector`
applies the message-level faults underneath
:class:`~repro.net.network.Network` scheduling.

Everything is driven by one :class:`~repro.sim.rng.SeededRng` stream,
so a chaos run is exactly reproducible from a single integer seed.

Semantics
---------
* **Loss** drops a message at delivery-scheduling time.  Held messages
  (partition semantics) are never "lost" while held; loss applies when
  the network actually puts the message on a link — a send, or the
  release of a sender-held message after a heal.  A message stopped at
  the receiver's edge already crossed the link: the heal hands it over
  without consulting the injector again.  Without the reliable
  delivery layer a dropped message is gone forever (this is what
  breaks the paper's requirement (1)); with it, the retransmit path
  recovers.
* **Duplication** schedules a second, independently jittered copy of
  the same payload.  The reliable delivery layer must absorb it:
  nothing above the transport de-duplicates messages (stream admission
  drops a repeated quasi-transaction, but unicast protocol traffic has
  no second line of defence).
* **Jitter** adds a uniform random extra latency per scheduled copy.
  With per-channel FIFO floors disabled this reorders messages (the
  E12a ablation's reordering channel); with them enabled it still
  perturbs cross-channel interleavings.
* **Flaps** hold one link down for a fixed window.  The flap is one
  holder among the link's others (``Network.change_links``): a
  partition episode or a crashed endpoint that also holds the link
  keeps it down past the window, and a recovery or heal inside the
  window does not revive it.
* **Crash / partition episodes** are carried in the plan for the chaos
  harness's convenience but applied at system level
  (``FragmentedDatabase`` schedules ``fail_node``/``recover_node`` and
  feeds :class:`~repro.net.partition.PartitionSpec` episodes to the
  partition manager); the injector itself never touches them.

Observability: every injected fault bumps a ``fault.*`` counter and,
when tracing is enabled, emits a ``fault.*`` trace event.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import NetworkError
from repro.net.message import Message
from repro.net.partition import PartitionSpec
from repro.obs import taxonomy
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

#: Effective per-message loss probability is capped here so that a
#: stack of overlapping bursts cannot reach 1.0 and starve retransmits
#: forever (the simulator would otherwise never quiesce).
MAX_LOSS_RATE = 0.95


@dataclass(frozen=True, slots=True)
class LossBurst:
    """A time-windowed loss-rate surge, added on top of the base rate."""

    start: float
    end: float
    rate: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise NetworkError(
                f"loss burst must end after it starts ({self.start}..{self.end})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise NetworkError(f"loss burst rate {self.rate} outside [0, 1]")

    def active_at(self, now: float) -> bool:
        """True while the burst window covers ``now``."""
        return self.start <= now < self.end


@dataclass(frozen=True, slots=True)
class LinkFlap:
    """A transient single-link outage: held down from ``at`` for
    ``duration`` (the link comes up then unless someone else holds it)."""

    at: float
    a: str
    b: str
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise NetworkError(f"flap duration must be positive ({self.duration})")


@dataclass(frozen=True, slots=True)
class CrashEpisode:
    """A scheduled crash-stop of one node with a scheduled recovery.

    ``unless_agent_home`` lets the chaos harness veto a crash that
    would hit the node currently hosting an agent — the paper's
    movement protocols handle home-node failure via explicit moves
    (Section 4.4.1's election parenthetical, exercised by E14), not by
    executing updates on a dead node, so the generic guarantee sweep
    keeps agents' homes alive and torments every other replica.
    """

    node: str
    at: float
    recover_at: float
    unless_agent_home: bool = False

    def __post_init__(self) -> None:
        if self.recover_at <= self.at:
            raise NetworkError(
                f"crash must recover after it starts ({self.at}..{self.recover_at})"
            )


@dataclass
class FaultPlan:
    """Everything that will go wrong in one run, reproducible by seed.

    ``loss_rate``/``dup_rate``/``jitter`` are steady-state message
    faults; ``link_loss`` overrides the base loss rate per link
    (keyed by frozenset endpoint pair); ``bursts``/``flaps`` are
    scheduled network-level episodes; ``crashes``/``partitions`` are
    system-level episodes applied by ``FragmentedDatabase``.
    """

    loss_rate: float = 0.0
    dup_rate: float = 0.0
    jitter: float = 0.0
    link_loss: Mapping[frozenset[str], float] = field(default_factory=dict)
    bursts: Sequence[LossBurst] = ()
    flaps: Sequence[LinkFlap] = ()
    crashes: Sequence[CrashEpisode] = ()
    partitions: Sequence[PartitionSpec] = ()

    def __post_init__(self) -> None:
        for name in ("loss_rate", "dup_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise NetworkError(f"{name} {rate} outside [0, 1]")
        if self.jitter < 0.0:
            raise NetworkError(f"jitter must be >= 0 ({self.jitter})")

    @property
    def message_faults(self) -> bool:
        """True if any message-level fault (loss/dup/jitter) is armed.

        ``FragmentedDatabase`` turns the reliable delivery layer on by
        default exactly when this is true — loss and duplication are
        meaningless to "inject" if nothing is expected to survive them.
        """
        return bool(
            self.loss_rate
            or self.dup_rate
            or self.jitter
            or self.link_loss
            or self.bursts
        )


class FaultInjector:
    """Applies a plan's message-level faults under network scheduling.

    Attached via ``network.faults``; :meth:`intercept` is consulted by
    ``Network._schedule_delivery`` for every delivery it is about to
    schedule and takes ownership of the scheduling decision (drop,
    jitter, duplicate).  :meth:`install` schedules the plan's link
    flaps on the simulator.
    """

    def __init__(
        self, network: "Network", plan: FaultPlan, rng: SeededRng
    ) -> None:
        self.network = network
        self.plan = plan
        self.rng = rng
        self.tracer = network.tracer
        self.metrics = network.metrics
        self.dropped = 0
        self.duplicated = 0
        self._c_dropped = self.metrics.counter("fault.messages_dropped")
        self._c_duplicated = self.metrics.counter("fault.messages_duplicated")
        self._c_flaps = self.metrics.counter("fault.flaps")
        self._h_jitter = self.metrics.histogram("fault.injected_jitter")
        network.faults = self

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Schedule the plan's link flaps on the network's simulator."""
        sim = self.network.sim
        for flap in self.plan.flaps:
            sim.schedule_at(
                flap.at,
                lambda f=flap: self._flap_down(f),
                label=f"fault flap down {flap.a}-{flap.b}",
            )
            sim.schedule_at(
                flap.at + flap.duration,
                lambda f=flap: self._flap_up(f),
                label=f"fault flap up {flap.a}-{flap.b}",
            )

    # -- the message-fault hook ----------------------------------------

    def intercept(self, message: Message, latency: float) -> None:
        """Schedule (or drop) one delivery the network handed over.

        Always takes ownership: the caller must not schedule the
        message itself.  Draw order (loss, jitter, dup, dup-jitter) is
        fixed so runs are reproducible from the plan seed.
        """
        rate = self._loss_rate(message)
        if rate > 0.0 and self.rng.bernoulli(rate):
            self.dropped += 1
            self._c_dropped.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    taxonomy.FAULT_DROP,
                    src=message.src,
                    dst=message.dst,
                    kind=message.kind,
                )
            return
        self.network.put_on_wire(message, latency + self._jitter_draw())
        if self.plan.dup_rate > 0.0 and self.rng.bernoulli(self.plan.dup_rate):
            self.duplicated += 1
            self._c_duplicated.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    taxonomy.FAULT_DUPLICATE,
                    src=message.src,
                    dst=message.dst,
                    kind=message.kind,
                )
            self.network.put_on_wire(
                replace(message), latency + self._jitter_draw()
            )

    # -- internals ------------------------------------------------------

    def _loss_rate(self, message: Message) -> float:
        rate = self.plan.link_loss.get(
            frozenset((message.src, message.dst)), self.plan.loss_rate
        )
        now = self.network.sim.now
        for burst in self.plan.bursts:
            if burst.active_at(now):
                rate += burst.rate
        return min(rate, MAX_LOSS_RATE)

    def _jitter_draw(self) -> float:
        if self.plan.jitter <= 0.0:
            return 0.0
        extra = self.rng.uniform(0.0, self.plan.jitter)
        self._h_jitter.observe(extra)
        return extra

    def _flap_down(self, flap: LinkFlap) -> None:
        # The flap itself is the holder; counters and trace events
        # report up/down transitions only.
        link = self.network.topology.link(flap.a, flap.b)
        if link.up:
            self._c_flaps.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    taxonomy.FAULT_FLAP_DOWN, a=flap.a, b=flap.b,
                    duration=flap.duration,
                )
        self.network.change_links(hold=[(link, flap)])

    def _flap_up(self, flap: LinkFlap) -> None:
        link = self.network.topology.link(flap.a, flap.b)
        if link.released_by({flap}) and self.tracer.enabled:
            self.tracer.emit(taxonomy.FAULT_FLAP_UP, a=flap.a, b=flap.b)
        self.network.change_links(release=[(link, flap)])
