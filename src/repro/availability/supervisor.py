"""Heartbeat failure detection and automatic agent failover.

The paper motivates agent movement with node failure ("When an agent's
home node goes down, the agent may wish to re-attach to some other
node", Section 4.4) but leaves the *trigger* to an operator.  The
availability supervisor closes that loop:

1. **Detection** — each agent's home node is probed over the ordinary
   unicast transport by one of its fragments' replicas.  ``suspect_after``
   consecutive missed pongs raise a suspicion; a failed or aborted
   failover backs the probe interval off exponentially, so a flapping
   or partitioned home is not hammered.

2. **Succession** — a live replica coordinates a cursor poll over the
   replica sets of the suspected agent's fragments.  With replies from
   a *majority* of each fragment's replica set (the dead home counts
   in the denominator, so a k=2 fragment can never fail over — by
   design: its only surviving replica cannot prove it is current), the
   most-caught-up common replica is elected successor and the token is
   transported to it through the shared movement machinery
   (:meth:`MovementProtocol._transport`) — the same DEPART/ARRIVE
   lifecycle, metrics, and traces as an operator-requested move.  The
   election happens as soon as every polled replica has voted; only a
   poll still missing a vote waits out ``succession_timeout``.

3. **Epoch cut** — the successor opens a new epoch at its post-poll
   stream head.  Updates the dead home committed but never propagated
   sit *above* that head in the old epoch: the cut declares them lost
   (the paper's availability trade-off — Section 2's orphans, made
   explicit and counted in ``avail.updates_discarded``).  The cut is
   multicast on the fragment's propagation plan; the network holds it
   for the dead home and re-delivers it at recovery, which is exactly
   the demotion trigger: the ex-home drops its stale suffix from the
   WAL (:meth:`WriteAheadLog.drop_stale_suffix`), then recovers that
   one fragment the way a crashed node recovers all of them — replay
   from checkpoint and WAL (:meth:`DatabaseNode.replay`), then
   :meth:`RecoveryManager.catch_up` from the successor.

No new network primitives: pings and polls are plain unicasts, cuts
ride the reliable FIFO broadcast, and a demoted or lagging replica
resyncs through recovery's own catch-up exchange.  Everything is
deterministic — timers are simulator events, and the only "oracle"
used is the choice of *which* replica probes (a real deployment runs
one detector per replica; the simulation elects a single live
representative to avoid an O(k²) message storm that would change
nothing about the detection semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.availability.reconfig import Reconfigurator
from repro.errors import DesignError
from repro.net.message import Message
from repro.obs import taxonomy
from repro.recovery.checkpoint import FragmentCheckpoint, apply_checkpoint
from repro.replication.admission import drain_buffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import DatabaseNode
    from repro.core.system import FragmentedDatabase
    from repro.core.transaction import QuasiTransaction
    from repro.sim.simulator import EventHandle

#: Unicast kinds of the supervisor's exchanges.
PING = "avail-ping"
PONG = "avail-pong"
SUCC_REQ = "avail-succ-req"
SUCC_REP = "avail-succ-rep"
#: Broadcast body type of an epoch-cut announcement.
EPOCH_CUT = "avail-cut"


@dataclass(frozen=True, slots=True)
class AvailabilityConfig:
    """Policy knobs for the failure detector and failover machinery.

    ``heartbeat_interval`` is both the probe period and the per-probe
    pong deadline; ``suspect_after`` consecutive misses raise the
    suspicion.  ``succession_timeout`` bounds the cursor poll: a poll
    every polled replica has answered elects at once, any other one
    decides at the timeout (replies arriving later are ignored; an
    abort backs off and re-detects).
    ``takeover_delay`` is the token transport delay of the failover
    move.  After an aborted failover the probe interval multiplies by
    ``backoff`` up to ``max_backoff`` and resets on the next pong or
    completed failover.
    """

    heartbeat_interval: float = 5.0
    suspect_after: int = 2
    succession_timeout: float = 12.0
    takeover_delay: float = 1.0
    backoff: float = 2.0
    max_backoff: float = 60.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise DesignError("heartbeat_interval must be positive")
        if self.suspect_after < 1:
            raise DesignError("suspect_after must be >= 1")
        if self.succession_timeout <= 0:
            raise DesignError("succession_timeout must be positive")
        if self.takeover_delay < 0:
            raise DesignError("takeover_delay must be >= 0")
        if self.backoff < 1.0:
            raise DesignError("backoff must be >= 1.0")
        if self.max_backoff < self.heartbeat_interval:
            raise DesignError("max_backoff must be >= heartbeat_interval")


@dataclass
class _AgentWatch:
    """Detector state for one agent: misses, backoff, probe chain."""

    interval: float
    misses: int = 0
    first_miss: float | None = None
    probing: bool = False


@dataclass
class _Succession:
    """One in-flight succession poll (cursor gather + election)."""

    agent: str
    home: str
    coordinator: str
    fragments: list[str]
    begun: float
    #: Every replica asked to vote, the coordinator included.
    polled: frozenset[str] = frozenset()
    replies: dict[str, dict[str, Any]] = field(default_factory=dict)
    timer: "EventHandle | None" = None


class AvailabilitySupervisor:
    """Failure detection, token succession, and demotion for one system.

    Always constructed by :class:`FragmentedDatabase` (its epoch-cut
    handler also serves the demotion path, which must work even when
    detection is off), but the detector only runs between
    :meth:`start` and its deadline — a recurring probe with no horizon
    would keep the event queue non-empty forever and ``quiesce()``
    would never return.
    """

    def __init__(self, config: AvailabilityConfig | None = None) -> None:
        self.config = config or AvailabilityConfig()
        self.enabled = config is not None
        self.system: "FragmentedDatabase | None" = None
        self.reconfig: Reconfigurator | None = None
        self._watch: dict[str, _AgentWatch] = {}
        self._until: float | None = None
        self._awaiting: dict[str, str] = {}  # nonce -> agent
        self._answered: set[str] = set()
        self._nonce = 0
        self._ballot = 0
        self._successions: dict[str, _Succession] = {}

    # -- wiring -------------------------------------------------------------

    def attach(self, system: "FragmentedDatabase") -> None:
        """Bind to the system: message handlers, counters, histogram."""
        self.system = system
        self.reconfig = Reconfigurator(system)
        metrics = system.metrics
        self._c_heartbeats = metrics.counter("avail.heartbeats")
        self._c_suspicions = metrics.counter("avail.suspicions")
        self._c_failovers = metrics.counter("avail.failovers")
        self._c_aborted = metrics.counter("avail.failovers_aborted")
        self._c_cuts = metrics.counter("avail.epoch_cuts")
        self._c_demotions = metrics.counter("avail.demotions")
        self._c_discarded = metrics.counter("avail.updates_discarded")
        # Incremented by the submission gate; registered here so
        # ``metrics.value("avail.updates_blocked")`` works on clean runs.
        metrics.counter("avail.updates_blocked")
        self._h_mttr = metrics.histogram("avail.mttr")
        for node in system.nodes.values():
            self.register_node(node)

    def register_node(self, node: "DatabaseNode") -> None:
        """Install the supervisor's message handlers on one node."""
        node.register_unicast(
            PING, lambda msg, n=node: self._on_ping(n, msg)
        )
        node.register_unicast(PONG, lambda msg, n=node: self._on_pong(n, msg))
        node.register_unicast(
            SUCC_REQ, lambda msg, n=node: self._on_succ_req(n, msg)
        )
        node.register_unicast(
            SUCC_REP, lambda msg, n=node: self._on_succ_rep(n, msg)
        )
        node.register_broadcast(
            EPOCH_CUT, lambda n, sender, body: self._on_cut(n, sender, body)
        )

    # -- detection ----------------------------------------------------------

    def start(self, until: float) -> None:
        """Arm the failure detector until sim time ``until``.

        Probes every agent's home on the heartbeat cadence; stops
        scheduling new work once the deadline passes so the simulator
        can quiesce.
        """
        if not self.enabled:
            raise DesignError(
                "availability detection requires an AvailabilityConfig"
            )
        system = self.system
        if until <= system.sim.now:
            raise DesignError("detector deadline must be in the future")
        self._until = until
        for name in sorted(system.agents):
            watch = self._watch.get(name)
            if watch is None:
                watch = _AgentWatch(interval=self.config.heartbeat_interval)
                self._watch[name] = watch
            if not watch.probing:
                watch.probing = True
                system.sim.schedule(
                    watch.interval,
                    lambda a=name: self._probe(a),
                    label=f"avail probe {name}",
                )

    def stop(self) -> None:
        """Disarm the detector; in-flight probe timers expire harmlessly."""
        self._until = None

    @property
    def _armed(self) -> bool:
        return self._until is not None and self.system.sim.now < self._until

    def _pick_monitor(self, agent_name: str, exclude: str) -> str | None:
        """The live replica that probes (or coordinates) for an agent.

        First live, non-syncing member of the union of the agent's
        fragments' replica sets, by name — deterministic, and a stand-in
        for "every replica detects independently" (see module docs).
        """
        system = self.system
        agent = system.agents[agent_name]
        candidates: set[str] = set()
        for fragment in agent.fragments:
            candidates.update(system.countable_replicas(fragment))
        candidates.discard(exclude)
        for name in sorted(candidates):
            if not system.nodes[name].down:
                return name
        return None

    def _probe(self, agent_name: str) -> None:
        system = self.system
        watch = self._watch[agent_name]
        if not self._armed:
            watch.probing = False
            return
        home = system.agents[agent_name].home_node
        monitor = self._pick_monitor(agent_name, home)
        if monitor is None:
            # Nobody alive to probe from; try again next round.
            system.sim.schedule(
                watch.interval,
                lambda: self._probe(agent_name),
                label=f"avail probe {agent_name}",
            )
            return
        self._nonce += 1
        nonce = f"hb{self._nonce}"
        self._awaiting[nonce] = agent_name
        self._c_heartbeats.inc()
        system.network.send(
            monitor,
            home,
            PING,
            {"agent": agent_name, "nonce": nonce, "monitor": monitor},
        )
        system.sim.schedule(
            watch.interval,
            lambda: self._check(agent_name, nonce),
            label=f"avail check {agent_name}",
        )

    def _on_ping(self, node: "DatabaseNode", message: Message) -> None:
        payload = message.payload
        self.system.network.send(
            node.name,
            payload["monitor"],
            PONG,
            {"agent": payload["agent"], "nonce": payload["nonce"]},
        )

    def _on_pong(self, node: "DatabaseNode", message: Message) -> None:
        nonce = message.payload["nonce"]
        if nonce in self._awaiting:
            self._answered.add(nonce)

    def _check(self, agent_name: str, nonce: str) -> None:
        """Probe deadline: count the miss or reset the detector."""
        self._awaiting.pop(nonce, None)
        answered = nonce in self._answered
        self._answered.discard(nonce)
        watch = self._watch[agent_name]
        if not self._armed:
            watch.probing = False
            return
        system = self.system
        if answered:
            watch.misses = 0
            watch.first_miss = None
            watch.interval = self.config.heartbeat_interval
            self._probe(agent_name)
            return
        if watch.misses == 0:
            # Unavailability is measured from the first unanswered
            # probe's send time, one interval before this deadline.
            watch.first_miss = system.sim.now - watch.interval
        watch.misses += 1
        if watch.misses < self.config.suspect_after:
            self._probe(agent_name)
            return
        self._c_suspicions.inc()
        home = system.agents[agent_name].home_node
        if system.tracer.enabled:
            system.tracer.emit(
                taxonomy.AVAIL_SUSPECT,
                agent=agent_name,
                home=home,
                misses=watch.misses,
            )
        watch.probing = False
        self._begin_failover(agent_name)

    def _resume(self, agent_name: str) -> None:
        """Restart the probe chain after a failover completed/aborted."""
        watch = self._watch.get(agent_name)
        if watch is None or watch.probing or not self._armed:
            return
        watch.probing = True
        self.system.sim.schedule(
            watch.interval,
            lambda: self._probe(agent_name),
            label=f"avail probe {agent_name}",
        )

    # -- succession ---------------------------------------------------------

    def _abort_failover(self, agent_name: str, reason: str) -> None:
        self._c_aborted.inc()
        system = self.system
        if system.tracer.enabled:
            system.tracer.emit(
                taxonomy.AVAIL_FAILOVER_ABORT, agent=agent_name, reason=reason
            )
        watch = self._watch.get(agent_name)
        if watch is not None:
            # Back off before re-suspecting; keep first_miss so MTTR
            # spans aborted attempts.
            watch.misses = 0
            watch.interval = min(
                watch.interval * self.config.backoff, self.config.max_backoff
            )
        self._resume(agent_name)

    def _begin_failover(self, agent_name: str) -> None:
        """Suspicion confirmed: poll the replica sets for a successor."""
        system = self.system
        agent = system.agents[agent_name]
        fragments = sorted(agent.fragments)
        home = agent.home_node
        if not fragments:
            self._abort_failover(agent_name, "agent controls no fragments")
            return
        if any(agent.token_for(f).in_transit for f in fragments):
            self._abort_failover(agent_name, "token already in transit")
            return
        coordinator = self._pick_monitor(agent_name, home)
        if coordinator is None:
            self._abort_failover(agent_name, "no live replica to coordinate")
            return
        self._ballot += 1
        ballot = f"fo{self._ballot}"
        targets: set[str] = set()
        for fragment in fragments:
            targets.update(system.replica_set(fragment))
        targets.discard(home)
        state = _Succession(
            agent=agent_name,
            home=home,
            coordinator=coordinator,
            fragments=fragments,
            begun=system.sim.now,
            polled=frozenset(targets),
        )
        self._successions[ballot] = state
        if system.tracer.enabled:
            system.tracer.emit(
                taxonomy.AVAIL_FAILOVER_BEGIN,
                agent=agent_name,
                home=home,
                coordinator=coordinator,
                ballot=ballot,
                fragments=fragments,
            )
        request = {
            "ballot": ballot,
            "agent": agent_name,
            "fragments": fragments,
            "coordinator": coordinator,
        }
        for target in sorted(targets):
            if target == coordinator:
                continue
            system.network.send(coordinator, target, SUCC_REQ, request)
        state.timer = system.sim.schedule(
            self.config.succession_timeout,
            lambda: self._finish_succession(ballot),
            label=f"avail succession {agent_name}",
        )
        # The coordinator's own cursors count without a round trip (and
        # decide the poll at once when it is the only replica polled).
        self._record_reply(
            ballot,
            self._build_succ_reply(system.nodes[coordinator], fragments),
        )

    def _build_succ_reply(
        self, node: "DatabaseNode", fragments: list[str]
    ) -> dict[str, Any]:
        """One replica's vote: cursors, retained archives, checkpoints."""
        streams = node.streams
        cursors: dict[str, tuple[int, int]] = {}
        archives: dict[str, dict[int, "QuasiTransaction"]] = {}
        checkpoints: dict[str, FragmentCheckpoint | None] = {}
        for fragment in fragments:
            if not self.system.replicates(node.name, fragment):
                continue
            cursors[fragment] = (
                streams.epoch[fragment],
                streams.next_expected[fragment],
            )
            archives[fragment] = dict(streams.archive.get(fragment) or {})
            checkpoints[fragment] = node.checkpoints.get(fragment)
        return {
            "node": node.name,
            "cursors": cursors,
            "archives": archives,
            "checkpoints": checkpoints,
        }

    def _on_succ_req(self, node: "DatabaseNode", message: Message) -> None:
        payload = message.payload
        self.system.network.send(
            node.name,
            payload["coordinator"],
            SUCC_REP,
            {
                "ballot": payload["ballot"],
                **self._build_succ_reply(node, payload["fragments"]),
            },
        )

    def _on_succ_rep(self, node: "DatabaseNode", message: Message) -> None:
        self._record_reply(message.payload["ballot"], message.payload)

    def _record_reply(self, ballot: str, reply: dict[str, Any]) -> None:
        """Count one vote; the last one the poll waits for elects at once.

        Once every polled replica has voted there is nothing left to
        learn, so waiting out ``succession_timeout`` would only stretch
        the outage.  A poll that cannot elect yet (a voter missing, no
        majority, no eligible successor) keeps its timer: only the
        deadline aborts.
        """
        state = self._successions.get(ballot)
        if state is None:
            return
        state.replies[reply["node"]] = reply
        if not state.polled <= state.replies.keys():
            return
        successor, _ = self._elect(state)
        if successor is not None:
            del self._successions[ballot]
            state.timer.cancel()
            self._hand_over(state, successor)

    def _finish_succession(self, ballot: str) -> None:
        """Poll deadline: elect from the replies in, or abort."""
        state = self._successions.pop(ballot, None)
        if state is None:
            return
        successor, reason = self._elect(state)
        if successor is None:
            self._abort_failover(state.agent, reason)
        else:
            self._hand_over(state, successor)

    def _elect(self, state: _Succession) -> tuple[str | None, str]:
        """The successor the replies so far elect, or None and why not."""
        system = self.system
        agent = system.agents[state.agent]
        if agent.home_node != state.home or any(
            agent.token_for(f).in_transit for f in state.fragments
        ):
            return None, "agent moved during the poll"
        for fragment in state.fragments:
            total = len(system.replica_set(fragment))
            syncing = system.syncing_replicas.get(fragment, ())
            voters = [
                name
                for name, reply in state.replies.items()
                if fragment in reply["cursors"] and name not in syncing
            ]
            if len(voters) < total // 2 + 1:
                return None, (
                    f"no majority for {fragment!r} "
                    f"({len(voters)}/{total // 2 + 1} of {total})"
                )
        candidates = [
            name
            for name, reply in state.replies.items()
            if not system.nodes[name].down
            and all(
                fragment in reply["cursors"]
                and name not in system.syncing_replicas.get(fragment, ())
                for fragment in state.fragments
            )
        ]
        if not candidates:
            return None, "no eligible successor"

        def cursor_key(name: str) -> tuple[tuple[int, int], ...]:
            return tuple(
                tuple(state.replies[name]["cursors"][fragment])
                for fragment in state.fragments
            )

        best = max(cursor_key(name) for name in candidates)
        return min(n for n in candidates if cursor_key(n) == best), ""

    def _hand_over(self, state: _Succession, successor: str) -> None:
        """The poll elected ``successor``: move the token there."""
        system = self.system
        system.metrics.inc("token.moves_requested")
        if system.tracer.enabled:
            system.tracer.emit(
                taxonomy.TOKEN_MOVE_REQUESTED,
                agent=state.agent,
                to=successor,
                transport_delay=self.config.takeover_delay,
            )
        # The shared transport, not the protocol's request_move: every
        # protocol's move handshake involves the (dead) old home.
        system.movement._transport(
            system,
            state.agent,
            successor,
            self.config.takeover_delay,
            lambda: self._takeover(state, successor),
        )

    def _takeover(self, state: _Succession, successor: str) -> None:
        """Token arrived at the successor: cut every fragment over."""
        system = self.system
        node = system.nodes[successor]
        if node.down:
            self._abort_failover(
                state.agent, f"successor {successor!r} died during takeover"
            )
            return
        agent = system.agents[state.agent]
        for fragment in state.fragments:
            self._cut_fragment(state, fragment, node, agent)
        self._c_failovers.inc()
        watch = self._watch.get(state.agent)
        detected = (
            watch.first_miss
            if watch is not None and watch.first_miss is not None
            else state.begun
        )
        mttr = system.sim.now - detected
        self._h_mttr.observe(mttr)
        if system.tracer.enabled:
            system.tracer.emit(
                taxonomy.AVAIL_FAILOVER_DONE,
                agent=state.agent,
                successor=successor,
                failed_home=state.home,
                mttr=mttr,
            )
        if watch is not None:
            watch.misses = 0
            watch.first_miss = None
            watch.interval = self.config.heartbeat_interval
        self._resume(state.agent)

    def _cut_fragment(
        self,
        state: _Succession,
        fragment: str,
        node: "DatabaseNode",
        agent: Any,
    ) -> None:
        """Catch the successor up, open the new epoch, announce the cut."""
        system = self.system
        streams = node.streams
        # 1. Fold the gathered majority state in: best checkpoint first,
        #    then every archived quasi-transaction in sequence order.
        best_ckpt: FragmentCheckpoint | None = None
        for reply in state.replies.values():
            ckpt = reply["checkpoints"].get(fragment)
            if ckpt is not None and (
                best_ckpt is None or ckpt.cursor > best_ckpt.cursor
            ):
                best_ckpt = ckpt
        if best_ckpt is not None and best_ckpt.cursor > (
            streams.epoch[fragment],
            streams.next_expected[fragment],
        ):
            apply_checkpoint(node, best_ckpt, persist=True)
        merged: dict[int, "QuasiTransaction"] = {}
        for name in sorted(state.replies):
            for seq, quasi in state.replies[name]["archives"].get(
                fragment, {}
            ).items():
                kept = merged.get(seq)
                if kept is None or quasi.epoch > kept.epoch:
                    merged[seq] = quasi
        for seq in sorted(merged):
            if seq >= streams.next_expected[fragment]:
                system.movement.admit(node, merged[seq])
        # 2. Open the new epoch at the majority high-water mark.  The
        #    token's next_seq records the dead home's stream head; any
        #    gap above the cut start is its unpropagated suffix — lost.
        token = agent.token_for(fragment)
        start = streams.next_expected[fragment]
        old_head = int(token.payload.get("next_seq", 0))
        discarded = max(0, old_head - start)
        if discarded:
            self._c_discarded.inc(discarded)
        reply_epochs = [
            reply["cursors"][fragment][0]
            for reply in state.replies.values()
            if fragment in reply["cursors"]
        ]
        new_epoch = (
            max(
                int(token.payload.get("epoch", 0)),
                streams.epoch[fragment],
                *reply_epochs,
            )
            + 1
        )
        token.payload["epoch"] = new_epoch
        token.payload["next_seq"] = start
        # Orphan the discarded suffix in the history recorder: the
        # successor re-mints slots >= start in the new epoch, and the
        # serializability checkers judge the surviving history only.
        # Every commit of this fragment at or above the cut start
        # predates the cut (new-epoch commits do not exist yet).
        for committed in system.recorder.committed:
            if (
                committed.fragment == fragment
                and committed.stream_seq is not None
                and committed.stream_seq >= start
            ):
                system.recorder.record_orphan(
                    committed.txn_id,
                    f"failover epoch cut e{new_epoch} of {fragment!r} "
                    f"at seq {start}",
                )
        lineage = token.payload.setdefault("cuts", [])
        lineage.append((new_epoch, start))
        streams.epoch[fragment] = new_epoch
        self._c_cuts.inc()
        if system.tracer.enabled:
            system.tracer.emit(
                taxonomy.AVAIL_EPOCH_CUT,
                fragment=fragment,
                epoch=new_epoch,
                start=start,
                node=node.name,
                agent=state.agent,
                discarded=discarded,
            )
        # 3. Announce on the fragment's own propagation plan.  The
        #    network holds the copy addressed to the dead home and
        #    re-delivers it at recovery — the demotion trigger.
        targets, stream = system.propagation_plan(fragment)
        system.broadcast.multicast(
            node.name,
            {
                "type": EPOCH_CUT,
                "fragment": fragment,
                "epoch": new_epoch,
                "start": start,
                "successor": node.name,
                "cuts": list(lineage),
            },
            kind="avail",
            targets=targets,
            stream=stream,
        )

    # -- demotion (epoch-cut receiver side) ---------------------------------

    def _on_cut(
        self, node: "DatabaseNode", sender: str, body: dict[str, Any]
    ) -> None:
        """A replica learns of one or more failover epoch cuts.

        Three cases, by this replica's cursor vs. the earliest unseen
        cut's start ``s``:

        * cursor above ``s`` — **demotion**: this replica holds a
          committed-but-unpropagated suffix the cut declared lost (the
          recovered ex-home, or a replica a late delivery pushed past
          the poll).  Discard ``[s, cursor)`` and recover the fragment.
        * cursor at ``s`` — the common live-replica case: park the
          cut; the drain loop activates it immediately.
        * cursor below ``s`` — behind: park the cut; held re-deliveries
          and a catch-up from the successor close the gap first.

        Cuts are parked (not applied eagerly) so a replica that must
        still admit old-epoch entries below the cut start keeps its
        old epoch until the cursor arrives — and chains of cuts from
        successive failovers activate strictly in order.
        """
        streams = node.streams
        fragment = body["fragment"]
        lineage: list[tuple[int, int]] = [
            (int(e), int(s))
            for e, s in (body.get("cuts") or [(body["epoch"], body["start"])])
        ]
        unseen = sorted(
            (e, s) for e, s in lineage if e > streams.epoch[fragment]
        )
        if not unseen:
            return  # stale announcement (or the successor's own echo)
        rewind_to = min(s for _, s in unseen)
        tainted = False
        if streams.next_expected[fragment] > rewind_to:
            if node.apply_queue.depth(fragment) > 0:
                # An install from the doomed suffix may be mid-flight;
                # demotion scrubs the WAL, so let the queue drain first
                # (it must: the old stream's sender is gone).
                self.system.sim.schedule(
                    1.0,
                    lambda: self._on_cut(node, sender, body),
                    label=f"avail demote retry {node.name}",
                )
                return
            tainted = self._demote(node, fragment, rewind_to, unseen[0][0])
        for epoch, start in unseen:
            streams.park_cut(fragment, epoch, start)
        drain_buffer(node, fragment)
        if tainted or (
            streams.epoch[fragment],
            streams.next_expected[fragment],
        ) < max(lineage):
            # Still short of the newest cut, or missing what a dropped
            # checkpoint held: catch up, from the successor first (held
            # re-deliveries may also close the gap; the admission path
            # drops whichever copy arrives second).
            self.system.recovery.catch_up(
                node,
                [fragment],
                want_snapshot=tainted,
                donor=body["successor"],
            )

    def _demote(
        self, node: "DatabaseNode", fragment: str, start: int, epoch: int
    ) -> bool:
        """Discard this replica's stale suffix, then recover the fragment.

        The suffix ``[start, cursor)`` was committed or installed here
        in an epoch below ``epoch``, but the failover cut continues the
        stream at ``start``.  It leaves the WAL, the fragment is
        replayed from what is durable, as crash recovery would, and the
        replica rejoins the stream at ``start``.  A checkpoint covering
        part of the suffix folds its writes in and cannot seed the
        replay: it is dropped, and True is returned — only a shipped
        snapshot can restore the prefix it held.
        """
        streams = node.streams
        stale = streams.next_expected[fragment] - start
        reached = streams.epoch[fragment]
        node.wal.drop_stale_suffix(fragment, epoch, start)
        ckpt = node.checkpoints.get(fragment)
        tainted = ckpt is not None and ckpt.upto > start
        if tainted:
            node.checkpoints.discard(fragment)
        node.replay(fragment)
        streams.epoch[fragment] = reached
        streams.next_expected[fragment] = start
        self._c_demotions.inc()
        self._c_discarded.inc(stale)
        if self.system.tracer.enabled:
            self.system.tracer.emit(
                taxonomy.AVAIL_DEMOTE,
                node=node.name,
                fragment=fragment,
                epoch=epoch,
                start=start,
                discarded=stale,
            )
        return tainted
