"""Message envelope for the simulated network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class Message:
    """A point-to-point message.

    ``payload`` is an arbitrary application object (quasi-transaction,
    lock request, M0 move announcement, ...).  ``kind`` is a short tag
    used for tracing and for the per-kind message counts that the
    overhead experiments (E10) report.  These five fields are exactly
    what a frame carries on the socket backend.
    """

    src: str
    dst: str
    kind: str
    payload: Any
    sent_at: float = 0.0
