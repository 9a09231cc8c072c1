"""Movement protocol interface and the fixed-agents default."""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.core.transaction import (
    QuasiTransaction,
    RequestTracker,
    TransactionSpec,
)
from repro.errors import TokenError
from repro.obs import taxonomy
from repro.replication.admission import AdmissionPolicy, OrderedAdmission

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import DatabaseNode
    from repro.core.system import FragmentedDatabase


class MovementProtocol:
    """Hooks the Section 4.4 protocols plug into the system.

    Propagation and installation are owned by the shared replication
    pipeline (:mod:`repro.replication`); a movement protocol is, from
    the pipeline's point of view, an *admission policy* (its
    ``admission`` attribute) plus move/gating hooks.  The base class
    supplies the faithful defaults — ordered admission and direct
    pipeline submission at commit — and subclasses override only the
    pieces their section of the paper changes.
    """

    name = "base"

    #: Admission stage of the pipeline.  Policies are stateless, so a
    #: class-level default instance is shared by all protocols using it.
    admission: AdmissionPolicy = OrderedAdmission()

    def attach(self, system: "FragmentedDatabase") -> None:
        """One-time wiring (register message handlers)."""
        self.system = system

    # -- propagation -------------------------------------------------------

    def propagate(self, node: "DatabaseNode", quasi: QuasiTransaction) -> None:
        """Hand a freshly committed quasi-transaction to the pipeline."""
        node.system.pipeline.submit(node, quasi)

    # -- admission -----------------------------------------------------------

    def admit(self, node: "DatabaseNode", quasi: QuasiTransaction) -> None:
        """Decide what to do with an arriving quasi-transaction.

        Default (:class:`OrderedAdmission`): install in per-fragment
        ``(epoch, stream_seq)`` order — gaps are buffered, duplicates
        dropped.
        """
        self.admission.admit(node, quasi)

    def after_install(self, node: "DatabaseNode", quasi: QuasiTransaction) -> None:
        """Called after a quasi-transaction finished installing locally."""

    # -- update gating ---------------------------------------------------------

    def before_update(
        self,
        system: "FragmentedDatabase",
        node: "DatabaseNode",
        spec: TransactionSpec,
        tracker: RequestTracker,
        fragment: str,
    ) -> bool:
        """Gate an update submission.

        Return True to proceed to the control strategy; return False if
        the protocol took ownership of the request (queued it or
        finished the tracker itself).
        """
        return True

    # -- moving ----------------------------------------------------------------

    def request_move(
        self,
        system: "FragmentedDatabase",
        agent_name: str,
        to_node: str,
        transport_delay: float = 0.0,
        on_done: Callable[[], None] | None = None,
    ) -> None:
        """Move an agent (with all its tokens) to a new home node."""
        raise TokenError(
            f"protocol {self.name!r} does not allow agents to move"
        )

    # -- shared move machinery -----------------------------------------------

    def _transport(
        self,
        system: "FragmentedDatabase",
        agent_name: str,
        to_node: str,
        transport_delay: float,
        arrive: Callable[[], None],
    ) -> None:
        """Common physical-token transport: mark in transit, then arrive.

        While a token is in transit, update submissions for its
        fragment are rejected (the agent is on the road; see
        ``FragmentedDatabase.submit``); the arrival wakes the waiters
        on such refusals once ``arrive`` has run.
        """
        agent = system.agents[agent_name]
        from_node = agent.home_node
        for fragment in agent.fragments:
            agent.token_for(fragment).begin_move(to_node)
        if system.tracer.enabled:
            system.tracer.emit(
                taxonomy.TOKEN_MOVE_DEPART,
                agent=agent_name,
                src=from_node,
                dst=to_node,
                fragments=sorted(agent.fragments),
            )

        def complete() -> None:
            for fragment in agent.fragments:
                agent.token_for(fragment).complete_move()
            agent.home_node = to_node
            system.metrics.inc("token.moves_completed")
            if system.tracer.enabled:
                system.tracer.emit(
                    taxonomy.TOKEN_MOVE_ARRIVE,
                    agent=agent_name,
                    src=from_node,
                    dst=to_node,
                    fragments=sorted(agent.fragments),
                )
            arrive()
            system.wake_refused()

        system.sim.schedule(
            transport_delay, complete, label=f"token arrival {agent_name}"
        )


class FixedAgentsProtocol(MovementProtocol):
    """Agents never move — Sections 4.1-4.3 operation."""

    name = "fixed-agents"
