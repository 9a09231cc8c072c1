"""The availability accountant: who was unavailable, when, and why.

The paper's headline claim is availability, but until now the repo
only measured it as run-level ratios (committed / submitted) or a
single post-hoc MTTR histogram.  The :class:`AvailabilityAccountant`
is a per-fragment state machine fed by the existing taxonomy events —
crashes and recoveries, partition episodes, the ``avail.*`` failover
phases, ``system.reconfig*`` membership changes, apply backpressure,
quorum-read timeouts — that maintains each fragment's **write** and
**read** availability timeline and attributes every unavailability
window to a cause:

========== ====================================================
cause      opened / closed by
========== ====================================================
``crash``      the agent's home node crashed / recovered (or the
               agent failed over to a live successor); on the read
               side, so many replicas are down that no quorum of
               live, mutually connected countable replicas exists
``transit``    the fragment's token departed / arrived (updates are
               rejected mid-move)
``failover``   ``avail.failover.begin`` / ``done`` or ``abort``
``partition``  a partition episode leaves every component short of
               a read quorum of countable replicas
``reconfig``   the read quorum fails over the *countable* set but
               would succeed if still-syncing joiners counted — the
               outage is attributable to the membership change
``backpressure`` the apply queue engaged backpressure for the
               fragment (updates are deferred, not lost)
========== ====================================================

Write availability is home-centric (the 1987 model initiates every
update at the fragment's agent): a fragment is write-unavailable
while its home is down (with the supervisor armed, the submission
gate rejects loudly), while its token is in transit, while a failover
is electing a successor, or while backpressure defers submissions.
Read availability is quorum-centric, matching the PR 7 quorum-read
service: a fragment is read-unavailable when no partition component
contains a majority of its live countable replicas.

The accountant is a streaming reducer with the same contract as the
offline auditor (:mod:`repro.analysis.audit`): feed it events in
emission order (file order is causal order — the simulator is
single-threaded), then :meth:`finish`.  Mid-stream it answers
:meth:`unavailable` queries, which is what the auditor's 8th check
uses to prove every blocked submission in a trace falls inside an
accounted window.

Quorum-read timeouts are recorded as point *incidents* (they mark a
read that failed, not a span with a known end), as are detection and
repair latencies per failover (the MTTD/MTTR decomposition).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.obs import taxonomy
from repro.obs.summary import read_trace

#: Cause names, in attribution-priority order (a window with several
#: concurrent causes is labelled by the first active one here).
CAUSES = (
    "crash",
    "transit",
    "failover",
    "partition",
    "reconfig",
    "backpressure",
)

DIMENSIONS = ("write", "read")


@dataclass
class Window:
    """One contiguous unavailability window of a fragment dimension."""

    fragment: str
    dimension: str  # "write" | "read"
    start: float
    end: float | None = None  # None while still open
    causes: set[str] = field(default_factory=set)  # every cause seen

    @property
    def primary(self) -> str:
        """The highest-priority cause active during the window."""
        for cause in CAUSES:
            if cause in self.causes:
                return cause
        return "unknown"

    def duration(self, now: float) -> float:
        return (self.end if self.end is not None else now) - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "fragment": self.fragment,
            "dimension": self.dimension,
            "start": round(self.start, 6),
            "end": None if self.end is None else round(self.end, 6),
            "causes": sorted(self.causes),
            "primary": self.primary,
        }


@dataclass
class _DimState:
    """Live cause set + open window for one (fragment, dimension)."""

    active: dict[str, int] = field(default_factory=dict)  # cause -> refcount
    window: Window | None = None
    last_change: float = 0.0
    cause_time: dict[str, float] = field(default_factory=dict)


class AvailabilityAccountant:
    """Streaming per-fragment write/read availability bookkeeping."""

    def __init__(self) -> None:
        self.start_time: float | None = None
        self.now = 0.0
        self.events = 0
        self.catalog_seen = False
        # Schema (from system.catalog / system.reconfig events).
        self.fragment_agent: dict[str, str] = {}
        self.agent_fragments: dict[str, list[str]] = {}
        self.agent_home: dict[str, str] = {}
        self.replicas: dict[str, set[str]] = {}
        self.syncing: dict[str, set[str]] = {}
        self.nodes: set[str] = set()
        # Connectivity inputs.
        self.down: set[str] = set()
        self._episodes: dict[str, list[list[set[str]]]] = {}
        # Per-(fragment, dimension) cause machines.
        self._dims: dict[tuple[str, str], _DimState] = {}
        # Closed windows, in close order.
        self.windows: list[Window] = []
        # Point incidents.
        self.quorum_timeouts: dict[str, int] = {}
        # Failover decomposition per agent: crash -> suspect -> done.
        self._crash_at: dict[str, float] = {}  # node -> time
        self._suspect_at: dict[str, float] = {}  # agent -> time
        self.incidents: list[dict[str, Any]] = []
        self._finished = False

    # -- event feed -------------------------------------------------------

    def feed(self, event: dict[str, Any]) -> None:
        """Consume one trace record (emission order)."""
        t = event.get("t")
        if isinstance(t, (int, float)):
            self.now = float(t)
            if self.start_time is None:
                self.start_time = self.now
        self.events += 1
        etype = event.get("type")
        handler = _HANDLERS.get(etype)
        if handler is not None:
            handler(self, event)

    def finish(self, end_time: float | None = None) -> "AvailabilityAccountant":
        """Close open windows at ``end_time`` (default: last event time)."""
        if self._finished:
            return self
        self._finished = True
        if end_time is not None:
            self.now = max(self.now, end_time)
        for state in self._dims.values():
            self._settle(state)
            if state.window is not None:
                state.window.end = self.now
                self.windows.append(state.window)
                state.window = None
        self.windows.sort(key=lambda w: (w.start, w.fragment, w.dimension))
        return self

    # -- streaming queries -------------------------------------------------

    def unavailable(self, fragment: str, dimension: str = "write") -> bool:
        """True while the fragment has an open unavailability window."""
        state = self._dims.get((fragment, dimension))
        return state is not None and bool(state.active)

    def active_causes(self, fragment: str, dimension: str = "write") -> set[str]:
        """The causes currently holding the dimension unavailable."""
        state = self._dims.get((fragment, dimension))
        return set(state.active) if state is not None else set()

    # -- cause machinery ---------------------------------------------------

    def _state(self, fragment: str, dimension: str) -> _DimState:
        key = (fragment, dimension)
        state = self._dims.get(key)
        if state is None:
            state = self._dims[key] = _DimState(
                last_change=self.start_time or self.now
            )
        return state

    def _settle(self, state: _DimState) -> None:
        """Integrate active causes' time up to now."""
        elapsed = self.now - state.last_change
        if elapsed > 0:
            for cause in state.active:
                state.cause_time[cause] = (
                    state.cause_time.get(cause, 0.0) + elapsed
                )
        state.last_change = self.now

    def _engage(self, fragment: str, dimension: str, cause: str) -> None:
        state = self._state(fragment, dimension)
        self._settle(state)
        state.active[cause] = state.active.get(cause, 0) + 1
        if state.window is None:
            state.window = Window(fragment, dimension, self.now)
        state.window.causes.add(cause)

    def _release(self, fragment: str, dimension: str, cause: str) -> None:
        state = self._dims.get((fragment, dimension))
        if state is None or cause not in state.active:
            return
        self._settle(state)
        state.active[cause] -= 1
        if state.active[cause] <= 0:
            del state.active[cause]
        if not state.active and state.window is not None:
            state.window.end = self.now
            self.windows.append(state.window)
            state.window = None

    def _release_all(self, fragment: str, dimension: str, cause: str) -> None:
        """Drop every refcount of ``cause`` at once."""
        state = self._dims.get((fragment, dimension))
        if state is None or cause not in state.active:
            return
        state.active[cause] = 1
        self._release(fragment, dimension, cause)

    # -- schema -----------------------------------------------------------

    def _on_catalog(self, event: dict[str, Any]) -> None:
        self.catalog_seen = True
        for name, spec in (event.get("fragments") or {}).items():
            agent = spec.get("agent")
            if agent is not None:
                self.fragment_agent[name] = agent
                fragments = self.agent_fragments.setdefault(agent, [])
                if name not in fragments:
                    fragments.append(name)
            replicas = spec.get("replicas")
            if replicas is not None:
                self.replicas[name] = set(replicas)
        for agent, home in (event.get("agents") or {}).items():
            self.agent_home.setdefault(agent, home)
        self.nodes.update(event.get("nodes") or ())
        # The catalog may arrive after crashes (tracing enabled late);
        # re-derive home-crash causes for completeness.
        for agent, home in self.agent_home.items():
            if home in self.down:
                self._home_crashed(agent)

    def _on_reconfig(self, event: dict[str, Any]) -> None:
        fragment = event.get("fragment")
        if fragment is None:
            return
        replicas = event.get("replicas")
        if replicas is not None:
            self.replicas[fragment] = set(replicas)
        self.syncing[fragment] = set(event.get("syncing") or ())
        self._reassess_read(fragment)

    def _on_synced(self, event: dict[str, Any]) -> None:
        fragment = event.get("fragment")
        node = event.get("node")
        if fragment is None:
            return
        self.syncing.get(fragment, set()).discard(node)
        self._reassess_read(fragment)

    # -- write dimension ---------------------------------------------------

    def _home_crashed(self, agent: str) -> None:
        for fragment in self.agent_fragments.get(agent, ()):
            state = self._state(fragment, "write")
            if "crash" not in state.active:
                self._engage(fragment, "write", "crash")

    def _home_restored(self, agent: str) -> None:
        for fragment in self.agent_fragments.get(agent, ()):
            self._release_all(fragment, "write", "crash")

    def _on_crash(self, event: dict[str, Any]) -> None:
        node = event.get("node")
        if node is None:
            return
        self.down.add(node)
        self._crash_at.setdefault(node, self.now)
        for agent, home in self.agent_home.items():
            if home == node:
                self._home_crashed(agent)
        self._reassess_all_reads()

    def _on_recover(self, event: dict[str, Any]) -> None:
        node = event.get("node")
        if node is None:
            return
        self.down.discard(node)
        self._crash_at.pop(node, None)
        for agent, home in self.agent_home.items():
            if home == node:
                self._home_restored(agent)
        self._reassess_all_reads()

    def _on_depart(self, event: dict[str, Any]) -> None:
        for fragment in event.get("fragments") or ():
            self._engage(fragment, "write", "transit")

    def _on_arrive(self, event: dict[str, Any]) -> None:
        agent = event.get("agent")
        dst = event.get("dst")
        if agent is not None and dst is not None:
            self.agent_home[agent] = dst
        for fragment in event.get("fragments") or ():
            self._release_all(fragment, "write", "transit")
        if agent is not None:
            # The move may have re-homed the agent off a crashed node
            # (failover) or onto one; re-derive the crash cause.
            if dst in self.down:
                self._home_crashed(agent)
            else:
                self._home_restored(agent)

    def _on_suspect(self, event: dict[str, Any]) -> None:
        agent = event.get("agent")
        if agent is not None:
            self._suspect_at.setdefault(agent, self.now)

    def _on_failover_begin(self, event: dict[str, Any]) -> None:
        agent = event.get("agent")
        fragments = event.get("fragments") or self.agent_fragments.get(
            agent, ()
        )
        for fragment in fragments:
            self._engage(fragment, "write", "failover")

    def _end_failover(self, agent: str | None) -> None:
        for fragment in self.agent_fragments.get(agent, ()):
            self._release_all(fragment, "write", "failover")

    def _on_failover_done(self, event: dict[str, Any]) -> None:
        agent = event.get("agent")
        failed_home = event.get("failed_home")
        self._end_failover(agent)
        crash_at = self._crash_at.get(failed_home)
        suspect_at = self._suspect_at.pop(agent, None)
        if crash_at is not None:
            self.incidents.append(
                {
                    "agent": agent,
                    "failed_home": failed_home,
                    "successor": event.get("successor"),
                    "crash_t": round(crash_at, 6),
                    "mttd": (
                        round(suspect_at - crash_at, 6)
                        if suspect_at is not None
                        else None
                    ),
                    "mttr": round(self.now - crash_at, 6),
                }
            )
        # The token-arrival at the successor (the shared movement path)
        # already re-homed the agent; nothing else to do for the
        # write-crash cause here.

    def _on_failover_abort(self, event: dict[str, Any]) -> None:
        self._end_failover(event.get("agent"))

    def _on_backpressure_engage(self, event: dict[str, Any]) -> None:
        fragment = event.get("fragment")
        if fragment is not None:
            self._engage(fragment, "write", "backpressure")

    def _on_backpressure_release(self, event: dict[str, Any]) -> None:
        fragment = event.get("fragment")
        if fragment is not None:
            self._release(fragment, "write", "backpressure")

    # -- read dimension ----------------------------------------------------

    def _on_cut(self, event: dict[str, Any]) -> None:
        label = str(event.get("label", ""))
        groups = [set(group) for group in event.get("groups") or ()]
        if groups:
            self._episodes.setdefault(label, []).append(groups)
        self._reassess_all_reads()

    def _on_heal(self, event: dict[str, Any]) -> None:
        label = str(event.get("label", ""))
        if label == "(now)":
            # heal_now ends every active episode at once.
            self._episodes.clear()
        else:
            stack = self._episodes.get(label)
            if stack:
                stack.pop()
                if not stack:
                    del self._episodes[label]
        self._reassess_all_reads()

    def _severed(self, a: str, b: str) -> bool:
        """True if any active episode separates ``a`` and ``b``."""
        for stacks in self._episodes.values():
            for groups in stacks:
                group_a = group_b = None
                for group in groups:
                    if a in group:
                        group_a = group
                    if b in group:
                        group_b = group
                if (
                    group_a is not None
                    and group_b is not None
                    and group_a is not group_b
                ):
                    return True
        return False

    def _read_quorum_state(self, fragment: str) -> tuple[bool, str | None]:
        """(available, cause-if-not) for the fragment's read quorum.

        Available iff some mutually connected set of live *countable*
        replicas reaches a majority of the countable set.  Greedy
        component construction over the live members is exact here:
        partition-induced connectivity is an equivalence relation per
        episode, and the intersection of equivalence relations is one.
        """
        replicas = self.replicas.get(fragment)
        if not replicas:
            return True, None  # full replication / unknown: not tracked
        syncing = self.syncing.get(fragment, set())
        countable = sorted(replicas - syncing) or sorted(replicas)
        quorum = len(countable) // 2 + 1
        if self._quorum_reachable(countable, quorum):
            return True, None
        # Attribute: would the quorum exist if syncing joiners counted?
        if syncing:
            widened = sorted(replicas)
            if self._quorum_reachable(widened, len(widened) // 2 + 1):
                return False, "reconfig"
        if self._episodes:
            live = [n for n in countable if n not in self.down]
            if len(live) >= quorum:
                return False, "partition"
        return False, "crash"

    def _quorum_reachable(self, members: list[str], quorum: int) -> bool:
        live = [n for n in members if n not in self.down]
        if len(live) < quorum:
            return False
        # Partition components over the live members.
        components: list[list[str]] = []
        for node in live:
            placed = False
            for component in components:
                if not self._severed(node, component[0]):
                    component.append(node)
                    placed = True
                    break
            if not placed:
                components.append([node])
        return any(len(c) >= quorum for c in components)

    _READ_CAUSES = ("crash", "partition", "reconfig")

    def _reassess_read(self, fragment: str) -> None:
        available, cause = self._read_quorum_state(fragment)
        state = self._state(fragment, "read")
        current = [c for c in self._READ_CAUSES if c in state.active]
        if available:
            for c in current:
                self._release_all(fragment, "read", c)
        else:
            for c in current:
                if c != cause:
                    self._release_all(fragment, "read", c)
            if cause not in state.active:
                self._engage(fragment, "read", cause)

    def _reassess_all_reads(self) -> None:
        for fragment in self.replicas:
            self._reassess_read(fragment)

    def _on_quorum_timeout(self, event: dict[str, Any]) -> None:
        for fragment in event.get("missing") or event.get("fragments") or ():
            self.quorum_timeouts[fragment] = (
                self.quorum_timeouts.get(fragment, 0) + 1
            )

    # -- summaries ---------------------------------------------------------

    def fragment_summary(
        self, fragment: str, dimension: str = "write"
    ) -> dict[str, Any]:
        """SLO summary of one fragment dimension (after :meth:`finish`)."""
        start = self.start_time or 0.0
        total = max(self.now - start, 0.0)
        windows = [
            w
            for w in self.windows
            if w.fragment == fragment and w.dimension == dimension
        ]
        unavailable = sum(w.duration(self.now) for w in windows)
        state = self._dims.get((fragment, dimension))
        per_cause = dict(
            sorted((state.cause_time if state else {}).items())
        )
        longest = max(
            (w.duration(self.now) for w in windows), default=0.0
        )
        return {
            "fragment": fragment,
            "dimension": dimension,
            "observed": round(total, 6),
            "unavailable": round(unavailable, 6),
            "availability": round(
                1.0 - (unavailable / total) if total else 1.0, 6
            ),
            "windows": len(windows),
            "longest_window": round(longest, 6),
            "by_cause": {c: round(t, 6) for c, t in per_cause.items()},
            "quorum_timeouts": self.quorum_timeouts.get(fragment, 0)
            if dimension == "read"
            else 0,
        }

    def summary(self) -> dict[str, Any]:
        """The full accountant report (after :meth:`finish`)."""
        fragments = sorted(self.fragment_agent) or sorted(
            {w.fragment for w in self.windows}
        )
        mttds = [
            i["mttd"] for i in self.incidents if i.get("mttd") is not None
        ]
        mttrs = [
            i["mttr"] for i in self.incidents if i.get("mttr") is not None
        ]
        return {
            "observed": round(max(self.now - (self.start_time or 0.0), 0.0), 6),
            "fragments": {
                fragment: {
                    dim: self.fragment_summary(fragment, dim)
                    for dim in DIMENSIONS
                }
                for fragment in fragments
            },
            "windows": [w.as_dict() for w in self.windows],
            "incidents": list(self.incidents),
            "mttd_mean": round(sum(mttds) / len(mttds), 6) if mttds else None,
            "mttr_mean": round(sum(mttrs) / len(mttrs), 6) if mttrs else None,
            "mttr_max": round(max(mttrs), 6) if mttrs else None,
        }

    def worst_window(self, dimension: str = "write") -> float:
        """Longest closed window across fragments (0.0 when none)."""
        return max(
            (
                w.duration(self.now)
                for w in self.windows
                if w.dimension == dimension
            ),
            default=0.0,
        )

    def availability(self, dimension: str = "write") -> float:
        """Mean per-fragment availability fraction for one dimension."""
        fragments = sorted(self.fragment_agent) or sorted(
            {w.fragment for w in self.windows}
        )
        if not fragments:
            return 1.0
        return sum(
            self.fragment_summary(f, dimension)["availability"]
            for f in fragments
        ) / len(fragments)


_HANDLERS = {
    taxonomy.SYSTEM_CATALOG: AvailabilityAccountant._on_catalog,
    taxonomy.SYSTEM_RECONFIG: AvailabilityAccountant._on_reconfig,
    taxonomy.RECONFIG_SYNCED: AvailabilityAccountant._on_synced,
    taxonomy.NODE_CRASH: AvailabilityAccountant._on_crash,
    taxonomy.NODE_RECOVER: AvailabilityAccountant._on_recover,
    taxonomy.TOKEN_MOVE_DEPART: AvailabilityAccountant._on_depart,
    taxonomy.TOKEN_MOVE_ARRIVE: AvailabilityAccountant._on_arrive,
    taxonomy.AVAIL_SUSPECT: AvailabilityAccountant._on_suspect,
    taxonomy.AVAIL_FAILOVER_BEGIN: AvailabilityAccountant._on_failover_begin,
    taxonomy.AVAIL_FAILOVER_DONE: AvailabilityAccountant._on_failover_done,
    taxonomy.AVAIL_FAILOVER_ABORT: AvailabilityAccountant._on_failover_abort,
    taxonomy.BACKPRESSURE_ENGAGE: AvailabilityAccountant._on_backpressure_engage,
    taxonomy.BACKPRESSURE_RELEASE: (
        AvailabilityAccountant._on_backpressure_release
    ),
    taxonomy.PARTITION_CUT: AvailabilityAccountant._on_cut,
    taxonomy.PARTITION_HEAL: AvailabilityAccountant._on_heal,
    taxonomy.QUORUM_READ_TIMEOUT: AvailabilityAccountant._on_quorum_timeout,
}


def account_events(
    events: Iterable[dict[str, Any]], end_time: float | None = None
) -> AvailabilityAccountant:
    """Run the accountant over event dicts in emission order."""
    accountant = AvailabilityAccountant()
    for event in events:
        accountant.feed(event)
    return accountant.finish(end_time)


def account_trace(path: str) -> dict[str, AvailabilityAccountant]:
    """Account a JSONL trace file, one accountant per ``run`` context."""
    grouped: dict[str, list[dict[str, Any]]] = {}
    for record in read_trace(path):
        grouped.setdefault(str(record.get("run", "")), []).append(record)
    return {
        run: account_events(events) for run, events in sorted(grouped.items())
    }
