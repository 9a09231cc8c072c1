"""The complete simulated system: nodes, network, agents, policies.

:class:`FragmentedDatabase` is the main entry point of the library::

    from repro import FragmentedDatabase, TransactionSpec

    db = FragmentedDatabase(["A", "B"])
    db.add_agent("central", home_node="A")
    db.add_fragment("BALANCES", agent="central", objects=["bal:1"])
    db.load({"bal:1": 300})
    db.finalize()
    tracker = db.submit_update("central", body, writes=["bal:1"])
    db.quiesce()
    assert tracker.succeeded

It wires one discrete-event simulator, a topology/network with a
partition manager, the broadcast fan-out over its FIFO channels, one
:class:`~repro.core.node.DatabaseNode` per site, the fragment catalog
and read-access graph, a control strategy (Sections 4.1-4.3), and a
movement protocol (Section 4.4).
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.availability.supervisor import (
    AvailabilityConfig,
    AvailabilitySupervisor,
)
from repro.cc.history import HistoryRecorder
from repro.core.agent import Agent
from repro.core.control.base import ControlStrategy
from repro.core.control.unrestricted import UnrestrictedReadsStrategy
from repro.core.fragment import Fragment, FragmentCatalog
from repro.core.movement.base import FixedAgentsProtocol, MovementProtocol
from repro.core.node import DatabaseNode
from repro.core.predicates import PredicateSuite
from repro.core.properties import (
    FragmentwiseReport,
    MutualConsistencyReport,
    PropertyReport,
    check_fragmentwise_serializability,
    check_global_serializability,
    check_mutual_consistency,
)
from repro.core.rag import ReadAccessGraph
from repro.core.token import Token
from repro.core.transaction import (
    QuasiTransaction,
    RefusalCause,
    RequestStatus,
    RequestTracker,
    TransactionSpec,
)
from repro.errors import DesignError, InitiationError, TokenError
from repro.net.faults import CrashEpisode, FaultInjector, FaultPlan
from repro.net.network import Network
from repro.net.partition import PartitionManager
from repro.net.reliable import ReliableConfig, ReliableTransport
from repro.net.topology import Link, Topology
from repro.net.broadcast import ReliableBroadcast
from repro.obs import taxonomy
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DEFAULT_RING_SIZE, LIVE_RING_SIZE, Tracer
from repro.recovery.manager import RecoveryConfig, RecoveryManager
from repro.replication.pipeline import PipelineConfig, ReplicationPipeline
from repro.replication.quorum import QuorumConfig, QuorumReadManager
from repro.sim.rng import SeededRng
from repro.sim.simulator import Simulator
from repro.storage.store import ObjectStore

#: What the asyncio backend retains (see ``FragmentedDatabase.__init__``):
#: request trackers and history records kept for display, and installs
#: per (node, fragment) between checkpoints — each checkpoint truncates
#: that node's WAL and, behind the cluster watermark, its stream archive.
LIVE_WINDOW = 1024
LIVE_CHECKPOINT_EVERY = 64

InstallHook = Callable[[DatabaseNode, QuasiTransaction], None]
CorrectiveHook = Callable[[DatabaseNode, QuasiTransaction, list], None]


@dataclass
class AvailabilityStats:
    """Aggregate request outcomes — the E1/E9 availability numbers."""

    submitted: int
    committed: int
    rejected: int
    aborted: int
    timed_out: int
    pending: int
    mean_latency: float | None

    @property
    def availability(self) -> float:
        """Committed / submitted (1.0 for an idle system)."""
        if self.submitted == 0:
            return 1.0
        return self.committed / self.submitted


class FragmentedDatabase:
    """A fully replicated fragments-and-agents distributed database."""

    def __init__(
        self,
        node_names: Sequence[str],
        topology: Topology | None = None,
        strategy: ControlStrategy | None = None,
        movement: MovementProtocol | None = None,
        seed: int = 0,
        default_latency: float = 1.0,
        action_delay: float = 0.0,
        pipeline: PipelineConfig | None = None,
        faults: FaultPlan | None = None,
        reliable: ReliableConfig | bool | None = None,
        recovery: RecoveryConfig | None = None,
        replication_factor: int | None = None,
        quorum: QuorumConfig | None = None,
        availability: AvailabilityConfig | None = None,
        runtime: str = "sim",
        tick: float = 0.05,
    ) -> None:
        if len(node_names) < 1:
            raise DesignError("at least one node required")
        if replication_factor is not None and replication_factor < 1:
            raise DesignError("replication_factor must be >= 1 (or None)")
        if runtime not in ("sim", "asyncio"):
            raise DesignError(
                f"unknown runtime {runtime!r} (expected 'sim' or 'asyncio')"
            )
        if runtime == "asyncio" and faults is not None and faults.jitter:
            # A real wire supplies its own latency: TcpMeshNetwork
            # ignores the model value, so injected jitter would do
            # nothing while the plan claimed it did.
            raise DesignError(
                "FaultPlan jitter is simulator-only: runtime='asyncio' "
                "takes its latency from the wire (use jitter=0)"
            )
        self.runtime_name = runtime
        # The runtime backend: the deterministic discrete-event
        # simulator, or the real-time asyncio scheduler + TCP mesh
        # (same duck-typed surface; see repro.runtime).  The asyncio
        # backend needs an explicit start_runtime()/stop_runtime()
        # bracket and thread-safe observability (HTTP front-door
        # threads read metrics while the loop thread writes them).
        if runtime == "asyncio":
            from repro.runtime.scheduler import AsyncioScheduler

            self.sim: Simulator | AsyncioScheduler = AsyncioScheduler(
                tick=tick
            )
            # A real network is a faulty network, and a process that
            # stays up is a process that compacts: what it retains is
            # bounded by these, not by its uptime.  The simulator keeps
            # everything — its serializability oracles read the whole
            # run.  An explicit argument always wins.
            if reliable is None:
                reliable = True
            if recovery is None:
                recovery = RecoveryConfig(
                    checkpoint_every=LIVE_CHECKPOINT_EVERY
                )
            window: int | None = LIVE_WINDOW
            ring_size, exclude = LIVE_RING_SIZE, taxonomy.LIVE_EXCLUDE
        else:
            self.sim = Simulator()
            window = None
            ring_size, exclude = DEFAULT_RING_SIZE, taxonomy.DEFAULT_EXCLUDE
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            clock=lambda: self.sim.now, ring_size=ring_size, exclude=exclude
        )
        self.sim.tracer = self.tracer
        self.topology = topology or Topology.full_mesh(
            node_names, default_latency
        )
        if runtime == "asyncio":
            from repro.runtime.tcp import TcpMeshNetwork

            self.metrics.enable_thread_safety()
            self.network: Network = TcpMeshNetwork(
                self.sim,
                self.topology,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            self.network.down_guard = self._node_is_down
        else:
            self.network = Network(
                self.sim,
                self.topology,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        self.broadcast = ReliableBroadcast(self.network)
        self.pipeline = ReplicationPipeline(pipeline)
        self.pipeline.attach(self)
        self.partitions = PartitionManager(self.network)
        self.recorder = HistoryRecorder()
        self.catalog = FragmentCatalog()
        self.rag = ReadAccessGraph(self.catalog)
        self.predicates = PredicateSuite(self.catalog)
        self.rng = SeededRng(seed)
        # Fault injection + reliable delivery (opt-in; both off on the
        # default fault-free network so existing runs stay untouched).
        # ``reliable=None`` means "on exactly when message faults are
        # armed" — the paper's reliable-delivery assumption must be
        # implemented once the substrate stops granting it for free.
        self.faults = faults
        if reliable is None:
            reliable = faults is not None and faults.message_faults
        if reliable:
            config = reliable if isinstance(reliable, ReliableConfig) else None
            self.transport: ReliableTransport | None = ReliableTransport(
                self.network, config
            )
        else:
            self.transport = None
        self.injector: FaultInjector | None = None
        self._faults_armed = False
        if faults is not None:
            self.injector = FaultInjector(
                self.network, faults, self.rng.fork("faults")
            )
            if runtime == "sim":
                self._arm_faults()
        self.action_delay = action_delay
        self.agents: dict[str, Agent] = {}
        self._fragment_agent: dict[str, str] = {}
        self.nodes: dict[str, DatabaseNode] = {}
        for name in node_names:
            node = DatabaseNode(name, self)
            self.nodes[name] = node
            self.network.register(name, node.handle_network)
            self.broadcast.attach(name, node.on_broadcast, register=False)
        self.strategy = strategy or UnrestrictedReadsStrategy()
        self.movement = movement or FixedAgentsProtocol()
        self.strategy.attach(self)
        self.movement.attach(self)
        # Checkpoint / compaction / catch-up policy engine.  Always
        # attached (its handlers serve the rejoin path); automatic
        # checkpoints and pruning stay off unless the config arms them.
        self.recovery = RecoveryManager(recovery)
        self.recovery.attach(self)
        self.trackers: list[RequestTracker] | deque[RequestTracker] = []
        if window is not None:
            self.trackers = deque(maxlen=window)
            self.recorder.keep_window(
                window, self.recovery.majority_checkpointed
            )
            # The flat lines, beside the recovery.* gauges on /metrics
            # (live only: the simulator's timeline records sample every
            # gauge, and those records are compared byte for byte).
            self.metrics.gauge(
                "history.retained", lambda: self.recorder.retained
            )
            self.metrics.gauge("trackers.retained", lambda: len(self.trackers))
            self.metrics.gauge("trace.ring_len", lambda: len(self.tracer))
        # Partial replication (paper's conclusion: "databases that are
        # not fully replicated"): fragment -> replicating nodes.  Absent
        # entries mean full replication of that fragment.  With a
        # ``replication_factor`` k < N every new fragment gets a
        # deterministic rendezvous-hashed replica set of size k (agent
        # home always included); ``set_replication`` overrides per
        # fragment either way.
        self.replication: dict[str, set[str]] = {}
        self.replication_factor = replication_factor
        # Online reconfiguration bookkeeping: per-fragment membership
        # epoch (bumped by every replica-set change) and the joiners
        # still syncing through catch-up (replicas that do not yet
        # count toward quorums, succession majorities, or the
        # compaction watermark).
        self.replication_epoch: dict[str, int] = {}
        self.syncing_replicas: dict[str, set[str]] = {}
        # Quorum-read service for fragments the submission node does not
        # replicate (always attached; it only acts on non-local reads).
        self.quorum = QuorumReadManager(quorum)
        self.quorum.attach(self)
        # Availability supervisor: heartbeat failure detection, automatic
        # agent failover, demotion, and online replica-set changes.  Its
        # handlers are always wired (the demotion path must work even
        # when detection is off); probing only runs between an explicit
        # ``availability.start(until=...)`` and that deadline.
        self.availability = AvailabilitySupervisor(availability)
        self.availability.attach(self)
        self._install_hooks: list[tuple[str, InstallHook]] = []
        self.corrective_hooks: list[CorrectiveHook] = []
        # One-shot (fragment, callback) waiters on a gate refusal, fired
        # where a refusal can end (``on_refusal_end``, ``wake_refused``).
        self._refusal_wakes: list[tuple[str, Callable[[], None]]] = []
        self._txn_counter = 0
        self._finalized = False
        self._warned_multi_fragment: set[str] = set()
        # Transaction lifecycle metrics (one counter handle per status).
        self._c_submitted = self.metrics.counter("txn.submitted")
        self._c_by_status = {
            RequestStatus.COMMITTED: self.metrics.counter("txn.committed"),
            RequestStatus.REJECTED: self.metrics.counter("txn.rejected"),
            RequestStatus.ABORTED: self.metrics.counter("txn.aborted"),
            RequestStatus.TIMED_OUT: self.metrics.counter("txn.timed_out"),
        }
        self._trace_by_status = {
            RequestStatus.COMMITTED: taxonomy.TXN_COMMIT,
            RequestStatus.REJECTED: taxonomy.TXN_REJECT,
            RequestStatus.ABORTED: taxonomy.TXN_ABORT,
            RequestStatus.TIMED_OUT: taxonomy.TXN_TIMEOUT,
        }
        self._h_commit_latency = self.metrics.histogram("txn.commit_latency")
        self.metrics.gauge("sim.now", lambda: self.sim.now)
        self.metrics.gauge("sim.pending", lambda: self.sim.pending)
        self.metrics.gauge("sim.events_fired", lambda: self.sim.events_fired)

    # -- observability ----------------------------------------------------------

    def enable_tracing(
        self,
        path: str | None = None,
        append: bool = False,
        context: Mapping[str, Any] | None = None,
    ) -> Tracer:
        """Turn on structured tracing, optionally streaming to JSONL.

        Returns the tracer so callers can tweak ``exclude`` or read the
        ring buffer.  Call ``db.tracer.close()`` (or use the tracer as a
        context manager) to flush a JSONL sink when done.
        """
        if path is not None:
            self.tracer.open_jsonl(path, append=append, context=context)
        self.tracer.enable()
        if self._finalized:
            # Tracing turned on after schema definition: emit the
            # catalog now so an offline audit of this sink still knows
            # the fragment -> objects map (finalize() already ran and
            # will not re-emit).
            self._emit_catalog()
        return self.tracer

    def _emit_catalog(self) -> None:
        """Trace the schema (fragment map + agent homes) for audits."""
        if not self.tracer.enabled:
            return
        self.tracer.emit(
            taxonomy.SYSTEM_CATALOG,
            fragments={
                fragment.name: {
                    "objects": sorted(fragment.objects),
                    "prefixes": sorted(fragment.prefixes),
                    "agent": self._fragment_agent.get(fragment.name),
                    "replicas": list(self.replica_set(fragment.name)),
                    "epoch": self.replication_epoch.get(fragment.name, 0),
                }
                for fragment in self.catalog
            },
            agents={
                name: agent.home_node for name, agent in self.agents.items()
            },
            nodes=sorted(self.nodes),
        )

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """The metrics registry's snapshot — the experiment-facing view.

        Counters and histograms accumulate from construction; gauges
        (held messages, pending events, …) are polled at call time.
        """
        return self.metrics.snapshot()

    def _node_is_down(self, name: str) -> bool:
        node = self.nodes.get(name)
        return node is not None and node.down

    def _observe_finish(self, tracker: RequestTracker) -> None:
        """Tracker observer: count + trace every terminal transition."""
        counter = self._c_by_status.get(tracker.status)
        if counter is not None:
            counter.inc()
        if tracker.status is RequestStatus.COMMITTED:
            latency = tracker.latency
            if latency is not None:
                self._h_commit_latency.observe(latency)
        if self.tracer.enabled:
            event_type = self._trace_by_status.get(tracker.status)
            if event_type is not None:
                cause = (
                    {} if tracker.cause is None
                    else {"cause": tracker.cause.value}
                )
                self.tracer.emit(
                    event_type,
                    txn=tracker.spec.txn_id,
                    agent=tracker.spec.agent,
                    node=tracker.node,
                    latency=tracker.latency,
                    reason=tracker.reason or None,
                    **cause,
                )
            if tracker.spec.update:
                self.tracer.emit(
                    taxonomy.SPAN_END,
                    txn=tracker.spec.txn_id,
                    agent=tracker.spec.agent,
                    node=tracker.node,
                    status=tracker.status.value,
                    latency=tracker.latency,
                )

    # -- schema definition -----------------------------------------------------

    def add_agent(self, name: str, home_node: str, kind: str = "user") -> Agent:
        """Register an agent at its initial home node."""
        if name in self.agents:
            raise DesignError(f"duplicate agent {name!r}")
        if home_node not in self.nodes:
            raise DesignError(f"unknown node {home_node!r}")
        agent = Agent(name, home_node, kind)
        self.agents[name] = agent
        return agent

    def add_fragment(
        self,
        name: str,
        agent: str,
        objects: Iterable[str] = (),
        prefixes: Iterable[str] = (),
    ) -> Fragment:
        """Define a fragment and hand its token to ``agent``."""
        if agent not in self.agents:
            raise DesignError(f"unknown agent {agent!r}")
        fragment = self.catalog.add(Fragment(name, objects, prefixes))
        self.rag.register_fragment(name)
        owner = self.agents[agent]
        token = Token(name, owner.home_node)
        owner.grant(token)
        self._fragment_agent[name] = agent
        if (
            self.replication_factor is not None
            and self.replication_factor < len(self.nodes)
        ):
            self.replication[name] = self._assign_replicas(
                name, owner.home_node, self.replication_factor
            )
        return fragment

    def _assign_replicas(self, fragment: str, home: str, k: int) -> set[str]:
        """Deterministic rendezvous-hash placement of ``k`` replicas.

        The agent's home node is always a member (it executes the
        fragment's updates locally); the remaining ``k - 1`` slots go to
        the highest-scoring nodes under a per-(fragment, node) hash, so
        placement is stable across runs, independent of insertion
        order, and spreads fragments evenly across the cluster.
        """
        scored = sorted(
            (name for name in self.nodes if name != home),
            key=lambda name: (
                hashlib.sha256(f"{fragment}|{name}".encode()).digest(),
                name,
            ),
            reverse=True,
        )
        return {home, *scored[: k - 1]}

    def set_replication(self, fragment: str, nodes: Iterable[str]) -> None:
        """Restrict a fragment's replicas to the given nodes.

        The agent's home node must be included (the agent reads and
        writes its fragment locally).  Call before :meth:`load`.
        Non-replicating nodes skip the fragment's quasi-transactions
        and never hold its objects; transactions reading the fragment
        must run at a replicating node.
        """
        if fragment not in self.catalog:
            raise DesignError(f"unknown fragment {fragment!r}")
        node_set = set(nodes)
        unknown = node_set - set(self.nodes)
        if unknown:
            raise DesignError(f"unknown nodes {sorted(unknown)}")
        home = self.agent_of(fragment).home_node
        if home not in node_set:
            raise DesignError(
                f"replica set for {fragment!r} must include the agent's "
                f"home node {home!r}"
            )
        self.replication[fragment] = node_set

    def replicates(self, node: str, fragment: str) -> bool:
        """True if ``node`` holds a replica of ``fragment``."""
        restricted = self.replication.get(fragment)
        return restricted is None or node in restricted

    def replica_set(self, fragment: str) -> tuple[str, ...]:
        """The sorted replica set of ``fragment`` (all nodes if full)."""
        restricted = self.replication.get(fragment)
        if restricted is None:
            return tuple(sorted(self.nodes))
        return tuple(sorted(restricted))

    def countable_replicas(self, fragment: str) -> tuple[str, ...]:
        """Replica-set members that count toward quorums and majorities.

        Excludes joiners still syncing through catch-up: a replica
        that is downloading history can vouch for neither the present
        (read quorums) nor a succession majority.
        """
        syncing = self.syncing_replicas.get(fragment)
        replicas = self.replica_set(fragment)
        if not syncing:
            return replicas
        return tuple(name for name in replicas if name not in syncing)

    def add_replica(self, fragment: str, node: str) -> None:
        """Add ``node`` to ``fragment``'s replica set while running.

        Epoch-stamped online reconfiguration: the joiner syncs through
        the catch-up path and counts toward quorums only once current.
        See :class:`repro.availability.reconfig.Reconfigurator`.
        """
        self.availability.reconfig.add(fragment, node)

    def remove_replica(self, fragment: str, node: str) -> None:
        """Remove ``node`` from ``fragment``'s replica set while running."""
        self.availability.reconfig.remove(fragment, node)

    def propagation_plan(self, fragment: str) -> tuple[tuple[str, ...] | None, str]:
        """``(targets, stream)`` for fragment-scoped group messages.

        A fully replicated fragment propagates on the classic
        broadcast-to-all channel (``targets=None``, stream ``""``) —
        the paper's wire behaviour, bit-identical to previous releases.
        A fragment with a restricted replica set multicasts to exactly
        that set on its own stream, so message volume scales with the
        replication factor k, not the cluster size N.
        """
        restricted = self.replication.get(fragment)
        if restricted is None:
            return None, ""
        epoch = self.replication_epoch.get(fragment, 0)
        if epoch == 0:
            # Membership never changed: the PR 7 stream name, so seeded
            # runs without reconfiguration stay bit-identical.
            return tuple(sorted(restricted)), f"f:{fragment}"
        # Each membership epoch numbers its messages on its own
        # stream, so the wire identity on a lineage span names the
        # membership the message was sent under.
        return tuple(sorted(restricted)), f"f:{fragment}@e{epoch}"

    def declare_reads(
        self,
        fragment: str,
        objects: Iterable[str] = (),
        fragments: Iterable[str] = (),
    ) -> None:
        """Declare the read pattern of A(fragment)'s transactions.

        Feeds the read-access graph: ``objects`` are resolved through
        the catalog; ``fragments`` add edges directly.
        """
        self.rag.declare_transaction(fragment, objects)
        for other in fragments:
            self.rag.add_read_edge(fragment, other)

    def load(self, initial: Mapping[str, Any]) -> None:
        """Install initial values at each object's replicating nodes."""
        by_fragment: dict[str, dict[str, Any]] = {}
        for obj, value in initial.items():
            fragment = self.catalog.fragment_of(obj)  # raises if unassigned
            by_fragment.setdefault(fragment, {})[obj] = value
        for fragment, values in by_fragment.items():
            for name, node in self.nodes.items():
                if self.replicates(name, fragment):
                    node.load_initial(values)

    def finalize(self) -> None:
        """Run design-time validation (idempotent)."""
        if self._finalized:
            return
        self.strategy.validate_design(self)
        self._finalized = True
        self._emit_catalog()

    # -- lookups ----------------------------------------------------------------

    def agent_of(self, fragment: str) -> Agent:
        """The agent currently holding the fragment's token."""
        try:
            return self.agents[self._fragment_agent[fragment]]
        except KeyError:
            raise DesignError(f"fragment {fragment!r} has no agent") from None

    def fragment_objects(self, fragment: str, store: ObjectStore) -> list[str]:
        """Objects of ``fragment`` present in ``store``."""
        spec = self.catalog.get(fragment)
        return [obj for obj in store.names if spec.contains(obj)]

    # -- transaction submission ------------------------------------------------

    def next_txn_id(self, prefix: str = "T") -> str:
        """A fresh unique transaction id."""
        self._txn_counter += 1
        return f"{prefix}{self._txn_counter}"

    def submit(
        self,
        spec: TransactionSpec,
        at: str | None = None,
        on_done: Callable[[RequestTracker], None] | None = None,
    ) -> RequestTracker:
        """Submit a transaction; returns its tracker immediately.

        Update transactions run at the initiating agent's current home
        node (``at`` is ignored); read-only transactions run at ``at``
        or the agent's home node.  The tracker reaches a terminal
        status during subsequent simulation (``run``/``quiesce``).
        """
        self.finalize()
        agent = self.agents.get(spec.agent)
        if agent is None:
            raise DesignError(f"unknown agent {spec.agent!r}")
        if not spec.update:
            node = self.nodes[at or agent.home_node]
            tracker = self._new_tracker(spec, node.name, on_done)
            # Declared reads of fragments this node does not replicate
            # go through the quorum-read service (version vote over the
            # replica set) before the body executes locally.  This also
            # serves reads when the fragment's agent node is down — a
            # read quorum of the surviving replicas suffices.
            remote = self.quorum.remote_fragments(node.name, spec)
            if remote:
                self.quorum.begin_read(node, spec, tracker, remote)
                return tracker
            self.strategy.begin_readonly(self, node, spec, tracker)
            return tracker

        fragment = self._update_fragment(spec, agent)
        tracker = self._new_tracker(spec, agent.home_node, on_done)
        self._gate_update(spec, tracker, fragment)
        return tracker

    def _gate_update(
        self, spec: TransactionSpec, tracker: RequestTracker, fragment: str
    ) -> None:
        """The update submission gate: token -> backpressure -> policies.

        Runs at first submission and again when the pipeline's
        backpressure releases a deferred request, so the agent's home
        node and the token state are re-resolved each time.
        """
        agent = self.agents[spec.agent]
        refusal = self._refusal(agent, fragment)
        if refusal is not None:
            cause, reason = refusal
            if cause is RefusalCause.HOME_DOWN:
                self.metrics.inc("avail.updates_blocked")
            self.recorder.record_rejection(spec.txn_id, cause.value)
            tracker.finish(
                RequestStatus.REJECTED, self.sim.now, reason=reason,
                cause=cause,
            )
            return
        node = self.nodes[agent.home_node]
        if self.pipeline.throttle_update(node, spec, tracker, fragment):
            return
        if not self.movement.before_update(self, node, spec, tracker, fragment):
            return
        self.strategy.begin_update(self, node, spec, tracker, fragment)

    def _refusal(
        self, agent: Agent, fragment: str
    ) -> tuple[RefusalCause, str] | None:
        """Why the gate refuses an update of ``fragment`` now, if it does."""
        if agent.token_for(fragment).in_transit:
            return (
                RefusalCause.TOKEN_IN_TRANSIT,
                f"token for {fragment!r} is in transit",
            )
        home = self.nodes[agent.home_node]
        if home.down and self.availability.enabled:
            # With the supervisor armed the outage is bounded (failover
            # re-homes the agent), so reject loudly instead of letting
            # the request hang — the client can resubmit after the MTTR
            # window.  Without a supervisor, behaviour is unchanged.
            return RefusalCause.HOME_DOWN, f"agent home {home.name!r} is down"
        return None

    def on_refusal_end(self, fragment: str, wake: Callable[[], None]) -> None:
        """Call ``wake`` once, on the protocol thread, when the gate
        stops refusing updates of ``fragment``.

        Register from the refused tracker's ``on_done`` — the refusal's
        own callback — so nothing that ends the refusal can run between
        the refusal and the registration.
        """
        self._refusal_wakes.append((fragment, wake))

    def wake_refused(self) -> None:
        """Fire the wakes whose refusal has ended; keep the others.

        Called at the only two places a refusal can end: a token's
        arrival (after its arrive step, so a failover's epoch cut is
        done) and a node's rejoin.  Each wake is judged by the gate's
        own rule, so another agent's landing wakes nobody in vain.
        """
        waiting, self._refusal_wakes = self._refusal_wakes, []
        for fragment, wake in waiting:
            if self._refusal(self.agent_of(fragment), fragment) is None:
                wake()
            else:
                self._refusal_wakes.append((fragment, wake))

    def submit_update(
        self,
        agent: str,
        body: Callable,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
        txn_id: str | None = None,
        ctx: Any = None,
        meta: dict[str, Any] | None = None,
        on_done: Callable[[RequestTracker], None] | None = None,
    ) -> RequestTracker:
        """Convenience wrapper building the spec inline."""
        spec = TransactionSpec(
            txn_id=txn_id or self.next_txn_id(),
            agent=agent,
            body=body,
            ctx=ctx,
            update=True,
            reads=reads,
            writes=writes,
            meta=meta or {},
        )
        return self.submit(spec, on_done=on_done)

    def submit_readonly(
        self,
        agent: str,
        body: Callable,
        at: str | None = None,
        reads: Sequence[str] = (),
        txn_id: str | None = None,
        ctx: Any = None,
        on_done: Callable[[RequestTracker], None] | None = None,
    ) -> RequestTracker:
        """Convenience wrapper for read-only transactions."""
        spec = TransactionSpec(
            txn_id=txn_id or self.next_txn_id("R"),
            agent=agent,
            body=body,
            ctx=ctx,
            update=False,
            reads=reads,
        )
        return self.submit(spec, at=at, on_done=on_done)

    def _new_tracker(
        self,
        spec: TransactionSpec,
        node_name: str,
        on_done: Callable[[RequestTracker], None] | None,
    ) -> RequestTracker:
        """Create, register, and instrument one request tracker."""
        tracker = RequestTracker(
            spec,
            self.sim.now,
            node_name,
            on_done=on_done,
            observer=self._observe_finish,
        )
        self.trackers.append(tracker)
        self._c_submitted.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.TXN_SUBMIT,
                txn=spec.txn_id,
                agent=spec.agent,
                node=node_name,
                update=spec.update,
            )
            if spec.update:
                self.tracer.emit(
                    taxonomy.SPAN_BEGIN,
                    txn=spec.txn_id,
                    agent=spec.agent,
                    node=node_name,
                    parent=spec.meta.get("repackaged_from"),
                )
        return tracker

    def _update_fragment(self, spec: TransactionSpec, agent: Agent) -> str:
        """Resolve which fragment an update transaction targets."""
        if spec.writes:
            fragments = {self.catalog.fragment_of(obj) for obj in spec.writes}
            if len(fragments) != 1:
                raise InitiationError(
                    f"transaction {spec.txn_id!r} declares writes in "
                    f"{sorted(fragments)}; single-fragment updates only "
                    f"(multi-fragment transactions are out of scope, see "
                    f"the paper's Section 3.2 footnote)"
                )
            fragment = fragments.pop()
        elif len(agent.fragments) == 1:
            fragment = agent.fragments[0]
        else:
            raise InitiationError(
                f"transaction {spec.txn_id!r}: agent {agent.name!r} controls "
                f"{len(agent.fragments)} fragments; declare the write set"
            )
        if not agent.controls(fragment):
            raise InitiationError(
                f"agent {agent.name!r} does not control fragment "
                f"{fragment!r} (initiation requirement)"
            )
        return fragment

    # -- runtime lifecycle -------------------------------------------------------

    def start_runtime(self) -> None:
        """Boot the asyncio backend (loop thread, TCP servers) and arm
        the fault plan's schedule on it.

        A no-op on the simulator backend, so harnesses can bracket both
        backends uniformly.  Idempotent.
        """
        if self.runtime_name != "asyncio":
            return
        self.sim.start()
        self.network.start()
        self._arm_faults()

    def stop_runtime(self) -> None:
        """Tear the asyncio backend down (no-op on the simulator)."""
        if self.runtime_name != "asyncio":
            return
        self.network.stop()
        self.sim.stop()

    def __enter__(self) -> "FragmentedDatabase":
        self.start_runtime()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop_runtime()

    def call_on_runtime(self, fn: Callable[[], Any], timeout: float = 30.0) -> Any:
        """Run ``fn`` on the protocol thread and return its result.

        On the asyncio backend this marshals onto the loop thread (the
        HTTP front door submits transactions this way); on the simulator
        it simply calls ``fn`` — protocol state is single-threaded
        either way.
        """
        if self.runtime_name == "asyncio":
            return self.sim.invoke(fn, timeout=timeout)
        return fn()

    def wait_until(
        self, predicate: Callable[[], bool], timeout: float = 30.0
    ) -> bool:
        """Wait for ``predicate`` (evaluated race-free) to become true.

        On the simulator this quiesces first (virtual time is free);
        on the asyncio backend it polls in real time up to ``timeout``.
        """
        if self.runtime_name == "asyncio":
            return self.sim.wait_until(predicate, timeout=timeout)
        self.quiesce()
        return bool(predicate())

    def _arm_faults(self) -> None:
        """Schedule the fault plan's flaps, partitions and crashes, once.

        Called at the first moment the scheduler accepts work: at
        construction on the simulator, in :meth:`start_runtime` on
        asyncio.  The order is fixed so same-tick episodes always fire
        in the same sequence.
        """
        if self.injector is None or self._faults_armed:
            return
        self._faults_armed = True
        self.injector.install()
        self.partitions.install(self.injector.plan.partitions)
        for crash in self.injector.plan.crashes:
            self.sim.schedule_at(
                crash.at,
                lambda c=crash: self._crash_episode(c),
                label=f"fault crash {crash.node}",
            )
            self.sim.schedule_at(
                crash.recover_at,
                lambda c=crash: self.recover_node(c.node),
                label=f"fault recover {crash.node}",
            )

    # -- node failure and recovery ----------------------------------------------

    def _crash_episode(self, crash: CrashEpisode) -> None:
        """Fire one scheduled crash from the fault plan.

        ``unless_agent_home`` episodes are vetoed at fire time if any
        agent currently lives on the node (agents may have moved since
        the plan was drawn) — the veto is traced, never silent.
        """
        if crash.unless_agent_home and any(
            agent.home_node == crash.node for agent in self.agents.values()
        ):
            self.metrics.inc("fault.crashes_skipped")
            if self.tracer.enabled:
                self.tracer.emit(taxonomy.FAULT_CRASH_SKIPPED, node=crash.node)
            return
        self.fail_node(crash.node)

    def _crash_holds(self, name: str) -> list[tuple[Link, Hashable]]:
        # A crashed node holds every link it is an endpoint of.
        return [
            (link, ("crash", name))
            for link in self.topology.links
            if name in link.endpoints()
        ]

    def fail_node(self, name: str) -> None:
        """Crash-stop one node: volatile state lost, links down.

        In-flight traffic to the node is held by the network; the WAL
        survives for :meth:`recover_node`.
        """
        if name not in self.nodes:
            raise DesignError(f"unknown node {name!r}")
        node = self.nodes[name]
        if node.down:
            return
        self.network.change_links(hold=self._crash_holds(name))
        node.crash()
        self.metrics.inc("node.crashes")
        if self.tracer.enabled:
            self.tracer.emit(taxonomy.NODE_CRASH, node=name)

    def recover_node(self, name: str) -> None:
        """Bring a crashed node back: WAL replay + anti-entropy.

        Only the crash's own holds are released: a link whose other
        endpoint is still down, that an active partition episode
        severs, or that sits inside a flap window stays down until
        those holders release it too.
        """
        if name not in self.nodes:
            raise DesignError(f"unknown node {name!r}")
        if self.nodes[name].down:
            self._rejoin(name)

    def _rejoin(self, name: str, **trace_extra: Any) -> None:
        """Restore state, release the crash holds, then catch up.

        In that order: the release puts the node's sender edges on the
        wire and hands its receiver edges to the restored node, so the
        catch-up requests that follow queue behind every earlier send
        and carry cursors that already count what was waiting for it.
        """
        node = self.nodes[name]
        self.metrics.inc("node.recoveries")
        if self.tracer.enabled:
            self.tracer.emit(taxonomy.NODE_RECOVER, node=name, **trace_extra)
        node.restore()
        self.network.change_links(release=self._crash_holds(name))
        self.recovery.catch_up(node)
        self.wake_refused()

    def hard_kill_node(self, name: str) -> None:
        """Kill one node at the *socket* level (asyncio backend).

        The paper-model :meth:`fail_node` marks links down, so the
        network holds outbound traffic for the dead node — clean, but
        simulated.  This variant models a killed process on a real
        network instead: its database state crashes and the topology
        is left *untouched* — senders keep sending, the mesh's
        ``down_guard`` drops every frame that reaches the dead node
        before the transport could ack it, and delivery through the
        outage is carried entirely by the reliable transport's
        retransmit budget plus the supervisor's failover.  Call on the
        protocol thread (``call_on_runtime``).
        """
        if name not in self.nodes:
            raise DesignError(f"unknown node {name!r}")
        node = self.nodes[name]
        if node.down:
            return
        node.crash()
        self.metrics.inc("node.crashes")
        if self.tracer.enabled:
            self.tracer.emit(taxonomy.NODE_CRASH, node=name, hard=True)

    def hard_revive_node(self, name: str) -> None:
        """Undo :meth:`hard_kill_node`: WAL recovery and catch-up."""
        if name not in self.nodes:
            raise DesignError(f"unknown node {name!r}")
        if self.nodes[name].down:
            self._rejoin(name, hard=True)

    # -- agent movement -----------------------------------------------------------

    def move_agent(
        self,
        agent_name: str,
        to_node: str,
        transport_delay: float = 0.0,
        on_done: Callable[[], None] | None = None,
    ) -> None:
        """Move an agent (with all its tokens) using the active protocol."""
        if agent_name not in self.agents:
            raise DesignError(f"unknown agent {agent_name!r}")
        if to_node not in self.nodes:
            raise DesignError(f"unknown node {to_node!r}")
        for fragment in self.agents[agent_name].fragments:
            if not self.replicates(to_node, fragment):
                raise DesignError(
                    f"agent {agent_name!r} cannot move to {to_node!r}: it "
                    f"does not replicate fragment {fragment!r}"
                )
        self.metrics.inc("token.moves_requested")
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.TOKEN_MOVE_REQUESTED,
                agent=agent_name,
                to=to_node,
                transport_delay=transport_delay,
            )
        self.movement.request_move(
            self, agent_name, to_node, transport_delay, on_done
        )

    # -- hooks ---------------------------------------------------------------------

    def on_install(self, fragment: str, hook: InstallHook) -> None:
        """Register a callback fired at each node after each install.

        The hook fires for the named fragment's quasi-transactions at
        *every* replica, including the origin — workload logic (e.g.
        the banking central office reacting to ACTIVITY updates)
        filters by node itself.
        """
        if fragment not in self.catalog:
            raise DesignError(f"unknown fragment {fragment!r}")
        self._install_hooks.append((fragment, hook))

    def on_corrective(self, hook: CorrectiveHook) -> None:
        """Register a Section 4.4.3 corrective-action hook."""
        self.corrective_hooks.append(hook)

    def fire_install_hooks(self, node: DatabaseNode, quasi: QuasiTransaction) -> None:
        """Invoke install hooks for one installed quasi-transaction."""
        self.recovery.note_install(node, quasi)
        for fragment, hook in self._install_hooks:
            if fragment == quasi.fragment:
                hook(node, quasi)

    # -- running --------------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Advance the simulation."""
        self.sim.run(until=until)

    def quiesce(self) -> None:
        """Run the simulation until every queued event has fired."""
        self.sim.run()

    # -- correctness and metrics -------------------------------------------------------

    def state_hash(self) -> str:
        """SHA-256 over every replica's committed object versions.

        Timestamps are excluded: value, writer, and version number
        fully determine logical state, while commit *times* legitimately
        differ between a fault-free and a faulty run of the same
        workload (jitter shifts them without changing outcomes).  Two
        runs that converge to the same logical replica contents hash
        identically — the chaos harness's convergence check.
        """
        digest = hashlib.sha256()
        for name in sorted(self.nodes):
            store = self.nodes[name].store
            for obj in sorted(store.names):
                version = store.read_version(obj)
                digest.update(
                    repr(
                        (name, obj, version.value, version.writer,
                         version.version_no)
                    ).encode()
                )
        return digest.hexdigest()

    def mutual_consistency(self) -> MutualConsistencyReport:
        """Compare all replicas (meaningful after quiescence).

        Under partial replication only objects present at both replicas
        of a pair are compared — a node that does not replicate a
        fragment is not "inconsistent", it simply has no copy.
        """
        return check_mutual_consistency(
            self.nodes.values(), common_only=bool(self.replication)
        )

    def global_serializability(self) -> PropertyReport:
        """Acyclicity of the global serialization graph."""
        return check_global_serializability(self.recorder)

    def fragmentwise_serializability(self) -> FragmentwiseReport:
        """Properties 1 and 2 of Section 4.3."""
        return check_fragmentwise_serializability(self.recorder)

    def availability_stats(self) -> AvailabilityStats:
        """Request-outcome aggregate over all submitted transactions."""
        counts = {status: 0 for status in RequestStatus}
        latencies: list[float] = []
        for tracker in self.trackers:
            counts[tracker.status] += 1
            if tracker.succeeded and tracker.latency is not None:
                latencies.append(tracker.latency)
        return AvailabilityStats(
            submitted=len(self.trackers),
            committed=counts[RequestStatus.COMMITTED],
            rejected=counts[RequestStatus.REJECTED],
            aborted=counts[RequestStatus.ABORTED],
            timed_out=counts[RequestStatus.TIMED_OUT],
            pending=counts[RequestStatus.PENDING],
            mean_latency=(sum(latencies) / len(latencies)) if latencies else None,
        )

    @property
    def agent_fragments(self) -> dict[str, str]:
        """Agent name -> fragment, for agents controlling exactly one.

        The typing map consumed by the l.s.g. builder.  An agent that
        controls two or more fragments cannot be typed by this map (the
        paper's appendix conceptually splits such agents); rather than
        *silently* omitting it — which under-reports any
        serializability analysis built on the map — the omission is
        counted (``lsg.untyped_agents``) and trace-warned once per
        agent.  Use :meth:`agent_fragment_map` with ``strict=True`` to
        turn the omission into a :class:`DesignError`.
        """
        return self.agent_fragment_map(strict=False)

    def agent_fragment_map(self, strict: bool = False) -> dict[str, str]:
        """The l.s.g. typing map, with explicit multi-fragment handling.

        ``strict=True`` raises :class:`DesignError` if any agent
        controls two or more fragments (its transactions would be left
        untyped); ``strict=False`` emits a traced warning and a metric
        instead, once per agent.
        """
        mapping: dict[str, str] = {}
        ambiguous: list[str] = []
        for agent in self.agents.values():
            if len(agent.fragments) == 1:
                mapping[agent.name] = agent.fragments[0]
            elif len(agent.fragments) >= 2:
                ambiguous.append(agent.name)
        if ambiguous and strict:
            raise DesignError(
                f"agents {sorted(ambiguous)} control two or more fragments; "
                f"their transactions cannot be typed by the l.s.g. map"
            )
        for name in ambiguous:
            if name in self._warned_multi_fragment:
                continue
            self._warned_multi_fragment.add(name)
            self.metrics.inc("lsg.untyped_agents")
            if self.tracer.enabled:
                self.tracer.emit(
                    taxonomy.WARN_MULTI_FRAGMENT_AGENT,
                    agent=name,
                    fragments=sorted(self.agents[name].fragments),
                )
        return mapping
