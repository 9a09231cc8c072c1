"""Section 4.4.1: permanent preparatory actions (majority commit).

"Before a transaction can commit at the agent's home node, the
corresponding quasi-transaction is sent out to the rest of the nodes,
and acknowledgments are requested.  The transaction commits only after
acknowledgments have been received from a majority of the nodes. ...
[On a move] the agent must then contact a majority of nodes and request
an identifier for all previously executed quasi-transactions on the
fragment.  If the new home node had missed any of these, it requests
them from the nodes that have them and runs them."

Availability cost, exactly as the paper says: "update transactions can
only be processed with the cooperation of a majority group of nodes."
An update submitted in a minority partition is rejected immediately;
the rejection count is the E7/E9 availability metric.  The extra
prepare/ack round per commit is the E10 overhead metric.

Simulation note (documented in DESIGN.md): the majority-reachability
check gates execution *before* the transaction runs, and the
prepare/ack/commit rounds then complete unconditionally (the network
guarantees eventual delivery).  A partition forming mid-round delays,
but does not lose, the commit broadcast — matching the paper's eventual
semantics while keeping local state clean.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.core.movement.base import MovementProtocol
from repro.core.transaction import (
    QuasiTransaction,
    RequestStatus,
    RequestTracker,
    TransactionSpec,
)
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import DatabaseNode
    from repro.core.system import FragmentedDatabase

KIND_PREP = "maj-prep"
KIND_ACK = "maj-ack"
KIND_MOVE_REQ = "maj-move-req"
KIND_MOVE_REP = "maj-move-rep"


class MajorityCommitProtocol(MovementProtocol):
    """Majority-commit updates; majority-resync moves."""

    name = "majority"

    def __init__(self, move_retry_interval: float = 10.0) -> None:
        self.move_retry_interval = move_retry_interval
        self._acks: dict[str, set[str]] = defaultdict(set)
        self._pending_qt: dict[str, QuasiTransaction] = {}
        self._move_state: dict[str, "_MoveResync"] = {}  # agent -> resync
        # Prepared-but-not-yet-committed quasi-transactions, per node and
        # fragment by stream seq.  The paper's resync correctness rests on
        # "each old transaction was seen by a majority of nodes" — and a
        # transaction is *seen* at prepare time, before its commit
        # broadcast, so the move resync must be able to serve these.
        self._prepared: dict[str, dict[str, dict[int, QuasiTransaction]]] = (
            defaultdict(lambda: defaultdict(dict))
        )
        # Updates submitted while the agent's post-move resync is still
        # in progress are queued: "This procedure ensures that the home
        # node has seen all transactions previously executed on the
        # fragment ...  *Now* the agent is ready to execute new update
        # transactions."
        self._resync_queue: dict[str, list] = {}
        self.minority_rejections = 0
        self.prepare_rounds = 0

    # -- wiring ----------------------------------------------------------

    def attach(self, system: "FragmentedDatabase") -> None:
        super().attach(system)
        for node in system.nodes.values():
            node.register_unicast(KIND_PREP, self._make_prep_handler(system, node))
            node.register_unicast(KIND_ACK, self._make_ack_handler(system))
            node.register_unicast(
                KIND_MOVE_REQ, self._make_move_req_handler(system, node)
            )
            node.register_unicast(
                KIND_MOVE_REP, self._make_move_rep_handler(system)
            )

    # -- update gating ----------------------------------------------------

    def before_update(
        self,
        system: "FragmentedDatabase",
        node: "DatabaseNode",
        spec: TransactionSpec,
        tracker: RequestTracker,
        fragment: str,
    ) -> bool:
        if spec.agent in self._resync_queue:
            self._resync_queue[spec.agent].append((spec, tracker))
            return False
        if self._in_majority(system, node.name):
            return True
        self.minority_rejections += 1
        system.recorder.record_rejection(
            spec.txn_id, "majority of nodes unreachable"
        )
        tracker.finish(
            RequestStatus.REJECTED,
            system.sim.now,
            reason="update requires cooperation of a majority group",
        )
        return False

    # -- propagation: prepare / ack / commit ------------------------------------

    def propagate(self, node: "DatabaseNode", quasi: QuasiTransaction) -> None:
        system = node.system
        self.prepare_rounds += 1
        self._acks[quasi.source_txn] = {node.name}
        self._pending_qt[quasi.source_txn] = quasi
        for other in system.nodes:
            if other != node.name:
                system.network.send(
                    node.name, other, KIND_PREP,
                    {"txn": quasi.source_txn, "origin": node.name,
                     "qt": quasi},
                )
        self._check_majority(system, quasi.source_txn, node.name)

    def _check_majority(
        self, system: "FragmentedDatabase", txn: str, origin: str
    ) -> None:
        quasi = self._pending_qt.get(txn)
        if quasi is None:
            return
        needed = len(system.nodes) // 2 + 1
        if len(self._acks[txn]) >= needed:
            del self._pending_qt[txn]
            # The ack round gates the *commit broadcast*; the broadcast
            # itself rides the shared pipeline like everyone else's.
            system.pipeline.submit(system.nodes[origin], quasi)

    # -- moving: resync from a majority -------------------------------------

    def request_move(
        self,
        system: "FragmentedDatabase",
        agent_name: str,
        to_node: str,
        transport_delay: float = 0.0,
        on_done: Callable[[], None] | None = None,
    ) -> None:
        def arrive() -> None:
            self._resync_queue.setdefault(agent_name, [])
            self._start_resync(system, agent_name, to_node, on_done)

        self._transport(system, agent_name, to_node, transport_delay, arrive)

    def _start_resync(
        self,
        system: "FragmentedDatabase",
        agent_name: str,
        to_node: str,
        on_done: Callable[[], None] | None,
    ) -> None:
        if not self._in_majority(system, to_node):
            # The paper requires majority cooperation; poll until the
            # partition heals enough.
            system.sim.schedule(
                self.move_retry_interval,
                lambda: self._start_resync(system, agent_name, to_node, on_done),
                label=f"majority move retry {agent_name}",
            )
            return
        agent = system.agents[agent_name]
        resync = _MoveResync(agent_name, to_node, list(agent.fragments), on_done)
        self._move_state[agent_name] = resync
        for other in system.nodes:
            if other != to_node:
                system.network.send(
                    to_node, other, KIND_MOVE_REQ,
                    {"agent": agent_name, "fragments": resync.fragments,
                     "requester": to_node},
                )
        self._maybe_finish_resync(system, resync)

    def _maybe_finish_resync(
        self, system: "FragmentedDatabase", resync: "_MoveResync"
    ) -> None:
        needed = len(system.nodes) // 2 + 1
        if resync.done or len(resync.replies) + 1 < needed:
            return
        resync.done = True
        self._move_state.pop(resync.agent, None)
        node = system.nodes[resync.node]
        agent = system.agents[resync.agent]
        for fragment in resync.fragments:
            # Install every missed quasi-transaction, in stream order.
            archive = resync.gathered[fragment]
            for seq in sorted(archive):
                self.admit(node, archive[seq])
        # The token's own counter is the authoritative high-water mark:
        # a transaction may have committed at the old home whose commit
        # broadcast (and prepares) are still trapped behind a partition,
        # unseen by any node in the current majority.  Resuming with a
        # hole below the counter would strand that transaction forever —
        # so keep resyncing until the node has truly caught up (the held
        # messages arrive once the partition heals).
        behind = any(
            node.streams.next_expected[fragment]
            < agent.token_for(fragment).payload.get("next_seq", 0)
            for fragment in resync.fragments
        )
        if behind:
            system.sim.schedule(
                self.move_retry_interval,
                lambda: self._start_resync(
                    system, resync.agent, resync.node, resync.on_done
                ),
                label=f"majority resync catch-up {resync.agent}",
            )
            return
        for fragment in resync.fragments:
            token = agent.token_for(fragment)
            token.payload["next_seq"] = max(
                node.streams.next_expected[fragment],
                max(resync.gathered[fragment], default=-1) + 1,
                token.payload.get("next_seq", 0),
            )
        # The agent is caught up: release updates queued during the
        # resync through the normal submission path.
        queued = self._resync_queue.pop(resync.agent, [])
        for spec, tracker in queued:
            if tracker.status.value != "pending":
                continue
            fragment = system._update_fragment(spec, agent)
            if self.before_update(system, node, spec, tracker, fragment):
                system.strategy.begin_update(
                    system, node, spec, tracker, fragment
                )
        if resync.on_done is not None:
            resync.on_done()

    # -- handlers ---------------------------------------------------------

    def _make_prep_handler(self, system: "FragmentedDatabase", node: "DatabaseNode"):
        def handle(message: Message) -> None:
            body = message.payload
            quasi: QuasiTransaction = body["qt"]
            self._prepared[node.name][quasi.fragment][quasi.stream_seq] = quasi
            system.network.send(
                node.name, body["origin"], KIND_ACK,
                {"txn": body["txn"], "origin": body["origin"],
                 "acker": node.name},
            )

        return handle

    def _make_ack_handler(self, system: "FragmentedDatabase"):
        def handle(message: Message) -> None:
            body = message.payload
            self._acks[body["txn"]].add(body["acker"])
            self._check_majority(system, body["txn"], body["origin"])

        return handle

    def _make_move_req_handler(
        self, system: "FragmentedDatabase", node: "DatabaseNode"
    ):
        def handle(message: Message) -> None:
            body = message.payload
            payload = {
                "agent": body["agent"],
                "replier": node.name,
                "archives": {
                    fragment: {
                        **self._prepared[node.name][fragment],
                        **node.streams.archive[fragment],
                    }
                    for fragment in body["fragments"]
                },
            }
            system.network.send(
                node.name, body["requester"], KIND_MOVE_REP, payload
            )

        return handle

    def _make_move_rep_handler(self, system: "FragmentedDatabase"):
        def handle(message: Message) -> None:
            body = message.payload
            resync = self._move_state.get(body["agent"])
            if resync is None or resync.done:
                return
            resync.replies.add(body["replier"])
            for fragment, archive in body["archives"].items():
                resync.gathered[fragment].update(archive)
            self._maybe_finish_resync(system, resync)

        return handle

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _in_majority(system: "FragmentedDatabase", node: str) -> bool:
        total = len(system.nodes)
        for component in system.topology.components():
            if node in component:
                return len(component) > total // 2
        return False


class _MoveResync:
    """State of one agent's majority resync after arrival."""

    def __init__(
        self,
        agent: str,
        node: str,
        fragments: list[str],
        on_done: Callable[[], None] | None,
    ) -> None:
        self.agent = agent
        self.node = node
        self.fragments = fragments
        self.on_done = on_done
        self.replies: set[str] = set()
        self.gathered: dict[str, dict[int, QuasiTransaction]] = defaultdict(dict)
        self.done = False
