"""The paper's primary contribution: fragments-and-agents databases.

Key classes:

* :class:`~repro.core.fragment.Fragment` /
  :class:`~repro.core.fragment.FragmentCatalog` — the disjoint division
  of the database (Section 3.1);
* :class:`~repro.core.token.Token` — one per fragment; its owner is the
  fragment's agent (Section 3.1);
* :class:`~repro.core.agent.Agent` — a user or node with exclusive
  update privilege over its fragments;
* :class:`~repro.core.transaction.TransactionSpec` — a submitted
  transaction (generator body + declared read/write sets);
* :class:`~repro.core.node.DatabaseNode` — one replica site: local
  strict-2PL execution, quasi-transaction installation in fragment
  order, update propagation (Section 3.2);
* :class:`~repro.core.system.FragmentedDatabase` — the whole simulated
  system, wiring nodes to the network, the control strategy
  (Section 4.1-4.3) and the agent-movement protocol (Section 4.4);
* :mod:`~repro.core.rag`, :mod:`~repro.core.gsg`,
  :mod:`~repro.core.properties` — the formal machinery: read-access
  graphs, serialization graphs, and the correctness-property checkers
  (global serializability, fragmentwise serializability, mutual
  consistency).
"""

from repro.core.agent import Agent
from repro.core.fragment import Fragment, FragmentCatalog
from repro.core.rag import ReadAccessGraph
from repro.core.token import Token
from repro.core.transaction import (
    QuasiTransaction,
    RefusalCause,
    RequestStatus,
    RequestTracker,
    TransactionSpec,
    scripted_body,
)

__all__ = [
    "Agent",
    "Fragment",
    "FragmentCatalog",
    "QuasiTransaction",
    "ReadAccessGraph",
    "RefusalCause",
    "RequestStatus",
    "RequestTracker",
    "Token",
    "TransactionSpec",
    "scripted_body",
]
