"""The no-protection baseline: move the token, hope for the best.

This is the situation the beginning of Section 4.4 warns about: "In the
absence of any special provisions, it is possible for T2 to be
initiated before T1 has a chance to reach Y ... such events may lead to
violations of fragmentwise serializability and even mutual
consistency."

Concretely: the token moves instantly (or after a transport delay) and
the new home node resumes numbering from *its own* possibly stale view
of the fragment stream.  Quasi-transactions are installed blindly in
arrival order (no sequence gating), so two replicas that receive a
pre-move orphan and a post-move transaction in opposite orders finish
with different values.  The E7 experiment measures exactly this
divergence; every faithful protocol then makes it vanish.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.core.movement.base import MovementProtocol
from repro.replication.admission import BlindAdmission

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import FragmentedDatabase


class InstantMoveProtocol(MovementProtocol):
    """Section 4.4's missing-transaction problem, made observable."""

    name = "none"

    # Blind install in arrival order — no buffering, no gap detection.
    admission = BlindAdmission()

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
                # The new home resumes from what it happens to have seen:
                # if it missed T1, its next transaction collides with T1's
                # sequence number.  That is the bug, on purpose.
                token.payload["next_seq"] = (
                    destination.streams.next_expected[fragment]
                )
            if on_done is not None:
                on_done()

        self._transport(system, agent_name, to_node, transport_delay, arrive)
