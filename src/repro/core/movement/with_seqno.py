"""Section 4.4.2B: moving with the sequence number.

"Only the sequence number of the last transaction to run at the old
home node is given to the new home ...  Before A executes T2, it must
wait until all previous quasi-transactions are received and run at Y.
New transactions are given sequence numbers that follow that of T1."

Cheaper to transport than a snapshot, but the new home may have to
*wait* for the missing quasi-transactions to arrive — across a
partition, until the heal.  Update requests submitted during the wait
are queued (or timed out, if ``wait_timeout`` is set); the measured
queue time is this protocol's availability cost in experiment E7.

Guarantees preserved: mutual consistency and fragmentwise
serializability (the stream numbering stays unbroken, exactly as in
move-with-data).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.core.movement.base import MovementProtocol
from repro.core.transaction import (
    QuasiTransaction,
    RequestStatus,
    RequestTracker,
    TransactionSpec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import DatabaseNode
    from repro.core.system import FragmentedDatabase


class _Wait:
    """One fragment's catch-up wait at its new home node."""

    def __init__(self, node: str, required_seq: int) -> None:
        self.node = node
        self.required_seq = required_seq
        self.queued: list[tuple[TransactionSpec, RequestTracker]] = []
        self.started_at = 0.0


class MoveWithSeqnoProtocol(MovementProtocol):
    """The token carries only the last sequence number."""

    name = "with-seqno"

    def __init__(self, wait_timeout: float | None = None) -> None:
        self.wait_timeout = wait_timeout
        self._waits: dict[str, _Wait] = {}  # fragment -> wait state
        self.total_wait_time = 0.0
        self.requests_queued = 0

    # -- update gating --------------------------------------------------------

    def before_update(
        self,
        system: "FragmentedDatabase",
        node: "DatabaseNode",
        spec: TransactionSpec,
        tracker: RequestTracker,
        fragment: str,
    ) -> bool:
        wait = self._waits.get(fragment)
        if wait is None or wait.node != node.name:
            return True
        if node.streams.next_expected[fragment] >= wait.required_seq:
            self._release(system, fragment)
            return True
        wait.queued.append((spec, tracker))
        self.requests_queued += 1
        if self.wait_timeout is not None:
            system.sim.schedule(
                self.wait_timeout,
                lambda: self._timeout(system, tracker, spec),
                label=f"seqno-wait timeout {spec.txn_id}",
            )
        return False

    def after_install(self, node: "DatabaseNode", quasi: QuasiTransaction) -> None:
        wait = self._waits.get(quasi.fragment)
        if wait is None or wait.node != node.name:
            return
        if node.streams.next_expected[quasi.fragment] >= wait.required_seq:
            self._release(node.system, quasi.fragment)

    # -- moving -------------------------------------------------------------

    def request_move(
        self,
        system: "FragmentedDatabase",
        agent_name: str,
        to_node: str,
        transport_delay: float = 0.0,
        on_done: Callable[[], None] | None = None,
    ) -> None:
        agent = system.agents[agent_name]
        fragments = list(agent.fragments)

        def arrive() -> None:
            destination = system.nodes[to_node]
            for fragment in fragments:
                token = agent.token_for(fragment)
                required = token.payload.get("next_seq", 0)
                if destination.streams.next_expected[fragment] < required:
                    wait = _Wait(to_node, required)
                    wait.started_at = system.sim.now
                    self._waits[fragment] = wait
            if on_done is not None:
                on_done()

        self._transport(system, agent_name, to_node, transport_delay, arrive)

    # -- internals -----------------------------------------------------------

    def _release(self, system: "FragmentedDatabase", fragment: str) -> None:
        wait = self._waits.pop(fragment, None)
        if wait is None:
            return
        self.total_wait_time += system.sim.now - wait.started_at
        node = system.nodes[wait.node]
        for spec, tracker in wait.queued:
            if tracker.status is RequestStatus.PENDING:
                system.strategy.begin_update(system, node, spec, tracker, fragment)

    def _timeout(
        self,
        system: "FragmentedDatabase",
        tracker: RequestTracker,
        spec: TransactionSpec,
    ) -> None:
        if tracker.status is RequestStatus.PENDING:
            system.recorder.record_rejection(
                spec.txn_id, "waiting for pre-move quasi-transactions"
            )
            tracker.finish(
                RequestStatus.TIMED_OUT,
                system.sim.now,
                reason="new home node still catching up after move",
            )
