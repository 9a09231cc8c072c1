"""Transaction specifications, request trackers, quasi-transactions.

Update and read-only transactions are submitted as
:class:`TransactionSpec` objects; the system returns a
:class:`RequestTracker` whose terminal status is the unit of the
availability metrics (a ``REJECTED`` or ``TIMED_OUT`` request *is* the
paper's "customer goes home empty-handed").

A committed update transaction's effects travel as a
:class:`QuasiTransaction` — "a series of unconditional updates ...
reflecting the desired effects" (Section 3.2) — with the version
numbers and timestamps the movement protocols of Section 4.4 need.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.cc.ops import Read, Write
from repro.obs.lineage import SpanContext
from repro.storage.values import Version

Body = Callable[[Any], Generator[Any, Any, Any]]


@dataclass
class TransactionSpec:
    """A transaction to be initiated by an agent.

    ``body`` is a generator function (see :mod:`repro.cc.ops`).
    ``reads`` declares the objects the body may read *outside* the
    written fragment; it is required by the Section 4.1 strategy (which
    must acquire remote locks up front) and by the Section 4.2 strategy
    (which validates the read-access graph), and is advisory otherwise.
    ``writes`` declares the objects the body may write; the initiation
    requirement is additionally enforced dynamically against the actual
    write set.  ``update`` distinguishes update transactions (initiated
    only by the fragment's agent) from read-only ones (initiated by any
    agent).
    """

    txn_id: str
    agent: str
    body: Body
    ctx: Any = None
    update: bool = True
    reads: Sequence[str] = ()
    writes: Sequence[str] = ()
    meta: dict[str, Any] = field(default_factory=dict)


class RequestStatus(enum.Enum):
    """Terminal (and one transient) status of a submitted request."""

    PENDING = "pending"
    COMMITTED = "committed"
    ABORTED = "aborted"  # local scheduler abort (deadlock, body abort)
    REJECTED = "rejected"  # strategy refused: availability loss
    TIMED_OUT = "timed_out"  # gave up waiting (e.g. remote locks)


class RefusalCause(enum.Enum):
    """Why the submission gate refused an update.

    Both conditions heal on their own (failover re-homes the agent, the
    token lands), so clients may retry and the auditor expects an open
    write-unavailability window.  ``RequestTracker.reason`` is display
    text; this is what code branches on.
    """

    HOME_DOWN = "home_down"
    TOKEN_IN_TRANSIT = "token_in_transit"


@dataclass
class RequestTracker:
    """Lifecycle record of one submitted transaction."""

    spec: TransactionSpec
    submit_time: float
    node: str
    status: RequestStatus = RequestStatus.PENDING
    finish_time: float | None = None
    reason: str = ""
    #: Set by the submission gate on a transient refusal, else None.
    cause: RefusalCause | None = None
    result: Any = None
    on_done: Callable[["RequestTracker"], None] | None = None
    #: System-installed hook fired on the terminal transition, before
    #: ``on_done`` — the observability layer counts and traces every
    #: outcome here regardless of which subsystem finished the request.
    observer: Callable[["RequestTracker"], None] | None = None

    def finish(
        self,
        status: RequestStatus,
        time: float,
        reason: str = "",
        result: Any = None,
        cause: RefusalCause | None = None,
    ) -> None:
        """Transition to a terminal status (exactly once)."""
        if self.status is not RequestStatus.PENDING:
            return
        self.status = status
        self.finish_time = time
        self.reason = reason
        self.cause = cause
        self.result = result
        if self.observer is not None:
            self.observer(self)
        # Fired once, then released: a finished tracker kept for
        # display must not pin its waiter (the front door's is an Event
        # per request).
        on_done, self.on_done = self.on_done, None
        if on_done is not None:
            on_done(self)

    @property
    def latency(self) -> float | None:
        """Submit-to-finish latency, None while pending."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def succeeded(self) -> bool:
        """True iff the request committed."""
        return self.status is RequestStatus.COMMITTED


@dataclass
class QuasiTransaction:
    """The broadcast form of a committed update transaction.

    ``writes`` carries full :class:`Version` objects so receivers
    install exactly what the origin installed.  ``stream_seq`` orders
    the quasi-transaction within its fragment's update stream and
    ``epoch`` counts completed agent moves for that fragment (the
    Section 4.4.3 protocol distinguishes pre-move "orphans" from the
    new home node's stream by epoch).
    """

    source_txn: str
    fragment: str
    agent: str
    origin_node: str
    stream_seq: int
    epoch: int
    writes: list[tuple[str, Version]]
    origin_time: float
    meta: dict[str, Any] = field(default_factory=dict)
    #: Causal lineage span, stamped at commit *only while tracing is
    #: enabled* (None otherwise — tracing off allocates nothing).  The
    #: batcher fills in batch/broadcast identity as the quasi travels.
    span: SpanContext | None = None

    @property
    def objects(self) -> list[str]:
        """Names of the objects this quasi-transaction writes."""
        return [obj for obj, _version in self.writes]


def scripted_body(actions: Sequence[tuple], collect: list | None = None) -> Body:
    """Build a body from a literal action list.

    Each action is ``('r', obj)`` or ``('w', obj, value)`` — the
    notation of the paper's Section 4.3 examples.  Values read are
    appended to ``collect`` (if given) so scripted experiments can
    assert what a transaction observed.

    >>> body = scripted_body([('r', 'c'), ('w', 'a', 1)])
    """

    def body(_ctx: Any) -> Generator[Any, Any, Any]:
        for action in actions:
            if action[0] == "r":
                value = yield Read(action[1])
                if collect is not None:
                    collect.append((action[1], value))
            elif action[0] == "w":
                yield Write(action[1], action[2])
            else:
                raise ValueError(f"unknown scripted action {action!r}")

    return body
