"""Section 4.4.3: omitting preparatory actions (the M0 protocol).

The agent "must start processing new transactions as soon as it arrives
at Y".  Fragmentwise serializability is forfeited; mutual consistency
is preserved by the following protocol (paper's notation: the agent ran
T1..Tr at X, of which Y had installed T1..Ti when it resumed):

At node Y (the new home):

* A1 — before broadcasting its first transaction, broadcast
  ``M0 = (T1, ..., Ti)``: the pre-move transactions installed at Y so
  far (we send the quasi-transactions themselves so behind nodes can
  catch up from the message);
* A2 — when a *missing* pre-move transaction Tl (l > i) surfaces later
  (via the healed network or a forward), strip the updates whose
  objects have since been overwritten (timestamp comparison), package
  the rest as a brand-new transaction with the next sequence number,
  install and broadcast it, and fire the registered corrective-action
  hooks ("if after Tk runs, a flight is overbooked, cancel one or more
  reservations").

At every other node Z:

* B1 — on M0: if behind (j < i), install T(j+1)..Ti from the message;
* B2 — a missing pre-move transaction arriving *after* M0 is not
  processed; it is forwarded to Y;
* B3 — post-move transactions install in the new stream order.

Implementation note: fragment streams are epoch-stamped; a move bumps
the epoch, so "pre-move transaction" is simply "quasi-transaction with
a stale epoch" and B3 falls out of the ordered admission keyed on
``(epoch, seq)``.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, Any

from repro.cc.ops import Write
from repro.core.movement.base import MovementProtocol
from repro.core.transaction import QuasiTransaction, TransactionSpec
from repro.net.message import Message
from repro.replication.admission import EpochOrderedAdmission, drain_buffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import DatabaseNode
    from repro.core.system import FragmentedDatabase

KIND_FWD = "fwd-orphan"
M0_TYPE = "m0"


class CorrectiveMoveProtocol(MovementProtocol):
    """Move instantly; reconcile missing transactions after the fact."""

    name = "corrective"

    def __init__(self) -> None:
        # Current-epoch traffic admits in order; future epochs park
        # until their M0; stale epochs are orphans (rule B2/A2).
        self.admission = EpochOrderedAdmission(self._handle_orphan)
        self._repackaged: set[str] = set()
        # Orphans that surfaced while the token was in transit: rule A2
        # needs the new home to *commit* the repackaged transaction, and
        # submissions are rejected mid-move — park and retry at arrival.
        self._deferred_orphans: list[QuasiTransaction] = []
        # (fragment, new_epoch) -> source txns the cut's M0 carried as
        # rule-B1 catch-up material.  "Missing" in rule A2 is defined
        # against these baselines: a pre-cut transaction absent from
        # some baseline since its epoch may never have reached replicas
        # that activated that epoch (or a later one) directly, so it
        # must be repackaged — even when the *current* home happens to
        # have installed it.  Membership is by transaction, not by seq
        # range: the seq space rewinds at a cut, so an old entry's slot
        # can sit below the cursor yet hold a different epoch's entry.
        self._baselines: dict[tuple[str, int], frozenset[str]] = {}
        self.orphans_handled = 0
        self.orphans_dropped_empty = 0
        self.orphans_deferred = 0
        self.repackaged_count = 0
        self.m0_broadcasts = 0

    # -- wiring ----------------------------------------------------------

    def attach(self, system: "FragmentedDatabase") -> None:
        super().attach(system)
        for node in system.nodes.values():
            node.register_unicast(KIND_FWD, self._make_fwd_handler(system, node))
            node.register_broadcast(M0_TYPE, self._on_m0)

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
                new_epoch = token.payload.get("epoch", 0) + 1
                installed_upto = destination.streams.next_expected[fragment]
                carried = [
                    destination.streams.archive[fragment][seq]
                    for seq in sorted(destination.streams.archive[fragment])
                    if seq < installed_upto
                ]
                self.m0_broadcasts += 1
                # M0 only concerns the fragment's replicas: it opens the
                # new epoch on the same FIFO stream the fragment's
                # quasi-transactions ride (full replication keeps the
                # classic broadcast-to-all channel).
                targets, stream = system.propagation_plan(fragment)
                system.broadcast.multicast(
                    to_node,
                    {
                        "type": M0_TYPE,
                        "fragment": fragment,
                        "epoch": new_epoch,
                        "upto": installed_upto,
                        "qts": carried,
                    },
                    kind="m0",
                    targets=targets,
                    stream=stream,
                )
                token.payload["epoch"] = new_epoch
                token.payload["next_seq"] = installed_upto
                self._baselines[(fragment, new_epoch)] = frozenset(
                    quasi.source_txn for quasi in carried
                )
            # Orphans parked during the flight can repackage now that
            # the token has landed (re-deferred if another fragment's
            # token is still travelling).
            deferred, self._deferred_orphans = self._deferred_orphans, []
            for quasi in deferred:
                self._handle_orphan(destination, quasi)
            if on_done is not None:
                on_done()

        self._transport(system, agent_name, to_node, transport_delay, arrive)

    # -- M0 processing (rule B1 + epoch activation) -----------------------------

    def _on_m0(
        self, node: "DatabaseNode", sender: str, body: dict[str, Any]
    ) -> None:
        fragment = body["fragment"]
        epoch = body["epoch"]
        if epoch <= node.streams.epoch[fragment]:
            return  # stale announcement
        # Catch up from the M0 contents (rule B1).  Install-dedup keys on
        # source txn, but a checkpointed replica no longer *names* every
        # txn its snapshot covers (WAL truncation and archive pruning
        # drop them from the dedup set) — so also skip carried entries
        # below this replica's cursor: ordered admission and prior B1
        # drains guarantee everything under the cursor was already seen
        # here, checkpointed or named.
        cursor = (
            node.streams.epoch[fragment],
            node.streams.next_expected[fragment],
        )
        for quasi in sorted(body["qts"], key=lambda q: q.stream_seq):
            if (quasi.epoch, quasi.stream_seq) < cursor:
                continue
            node.enqueue_install(quasi)  # dedups already-installed sources
        # Orphans sitting in the old-epoch buffer become rule-B2 forwards.
        streams = node.streams
        stale = [
            quasi
            for key, quasi in list(streams.buffer[fragment].items())
            if key[0] < epoch
        ]
        for quasi in stale:
            del streams.buffer[fragment][(quasi.epoch, quasi.stream_seq)]
        streams.epoch[fragment] = epoch
        streams.next_expected[fragment] = body["upto"]
        for quasi in stale:
            self._handle_orphan(node, quasi)
        drain_buffer(node, fragment)

    # -- orphan handling (rules B2 and A2) -------------------------------------

    def _missing(self, quasi: QuasiTransaction, current_epoch: int) -> bool | None:
        """Is this stale-epoch transaction outside some M0 baseline?

        A replica reaches the current epoch by processing *one* of the
        cut M0s since the orphan's epoch (intermediate M0s arriving out
        of order are discarded as stale), so the orphan's effects are
        guaranteed everywhere only if every such baseline carried it.
        Absent from any one of them, some replica may have jumped
        straight over the M0 that would have delivered it: rule A2 must
        repackage.  Returns None when a cut's baseline is unknown (a
        foreign move protocol bumped the epoch), letting the caller
        fall back to the install-dedup heuristic.
        """
        cuts = [
            self._baselines.get((quasi.fragment, epoch))
            for epoch in range(quasi.epoch + 1, current_epoch + 1)
        ]
        if not cuts or any(cut is None for cut in cuts):
            return None
        return any(quasi.source_txn not in cut for cut in cuts)

    def _handle_orphan(self, node: "DatabaseNode", quasi: QuasiTransaction) -> None:
        if quasi.source_txn in self._repackaged:
            return
        system = node.system
        agent = system.agent_of(quasi.fragment)
        token = agent.token_for(quasi.fragment)
        missing = self._missing(quasi, token.payload.get("epoch", 0))
        if missing is None:
            missing = quasi.source_txn not in node.streams.installed_sources
        if not missing:
            return
        if token.in_transit:
            # The new home cannot commit a repackaged transaction while
            # the token travels (the submission would be rejected and
            # the orphan's updates silently lost — exactly the state a
            # heal-during-move surfaces orphans in).  Park until the
            # arrival callback replays us.
            self.orphans_deferred += 1
            self._deferred_orphans.append(quasi)
            return
        home = agent.home_node
        if node.name != home:
            system.network.send(node.name, home, KIND_FWD, {"qt": quasi})
            return
        self._repackage(system, node, agent.name, quasi)

    def _repackage(
        self,
        system: "FragmentedDatabase",
        node: "DatabaseNode",
        agent_name: str,
        quasi: QuasiTransaction,
    ) -> None:
        """Rule A2: strip overwritten updates, rebroadcast the rest."""
        self._repackaged.add(quasi.source_txn)
        self.orphans_handled += 1
        kept: list[tuple[str, Any]] = []
        for obj, version in quasi.writes:
            if (
                node.store.exists(obj)
                and node.store.read_version(obj).timestamp > quasi.origin_time
            ):
                continue  # already overwritten by a more recent transaction
            kept.append((obj, version.value))
        if kept:
            self.repackaged_count += 1

            def body(_ctx: Any) -> Generator[Any, Any, Any]:
                for obj, value in kept:
                    yield Write(obj, value)

            spec = TransactionSpec(
                txn_id=f"rp:{quasi.source_txn}",
                agent=agent_name,
                body=body,
                update=True,
                meta={"repackaged_from": quasi.source_txn},
            )
            system.submit(spec)
        else:
            self.orphans_dropped_empty += 1
        for hook in system.corrective_hooks:
            hook(node, quasi, kept)

    # -- handlers ---------------------------------------------------------

    def _make_fwd_handler(self, system: "FragmentedDatabase", node: "DatabaseNode"):
        def handle(message: Message) -> None:
            self._handle_orphan(node, message.payload["qt"])

        return handle
