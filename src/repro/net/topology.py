"""Network topology: nodes, links, reachability, path latency."""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Iterable, Set

from repro.errors import NetworkError


class Link:
    """An undirected link with a latency and the set of holders keeping it down.

    A link is down while anyone holds it down: a crashed endpoint, a
    partition episode, a flap window — each is one hashable holder,
    and ``up`` is the read-only fact "no holders".  Holders change in
    one place only, :meth:`repro.net.network.Network.change_links`,
    which resumes the reconnected channels before it returns.  An
    up/down transition bumps a generation counter shared with the
    owning :class:`Topology`, which invalidates its path-latency cache.
    """

    __slots__ = ("a", "b", "latency", "_holders", "_version")

    def __init__(self, a: str, b: str, latency: float) -> None:
        if latency < 0:
            raise NetworkError(f"negative latency on link {a}-{b}")
        self.a = a
        self.b = b
        self.latency = latency
        self._holders: set[Hashable] = set()
        # Shared generation cell; re-bound to the topology's cell when
        # the link is added to one.  A standalone link gets its own.
        self._version = [0]

    @property
    def up(self) -> bool:
        """Whether the link currently carries traffic."""
        return not self._holders

    def released_by(self, holders: Set[Hashable]) -> bool:
        """True if releasing ``holders`` brings this down link up."""
        return bool(self._holders) and self._holders <= holders

    def _change(self, holder: Hashable, hold: bool) -> None:
        # Network.change_links only: nothing else may flip a link.
        was_up = not self._holders
        if hold:
            self._holders.add(holder)
        else:
            self._holders.discard(holder)
        if was_up != (not self._holders):
            self._version[0] += 1

    def endpoints(self) -> frozenset[str]:
        """The unordered endpoint pair, used as the link's key."""
        return frozenset((self.a, self.b))


class Topology:
    """An undirected graph of named nodes and latency-weighted links.

    Convenience constructors cover the experiment shapes: full mesh,
    star, and line.  Reachability and shortest-latency paths consider
    only links that are currently up.
    """

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        self._nodes: dict[str, None] = {}
        self._links: dict[frozenset[str], Link] = {}
        self._adj: dict[str, list[Link]] = {}
        # Path-latency memo, invalidated wholesale whenever the graph's
        # generation (bumped by link up/down flips and structural edits)
        # moves past the generation the memo was built at.  ``None``
        # results (disconnected pairs) are cached too — during a
        # partition those are exactly the hot queries.
        self._version = [0]
        self._path_cache: dict[tuple[str, str], float | None] = {}
        self._cache_version = -1
        #: Set False to recompute every path query from scratch — only
        #: used by the scale benchmark to reproduce pre-cache behavior.
        self.cache_paths = True
        for node in nodes:
            self.add_node(node)

    # -- construction -------------------------------------------------

    @classmethod
    def full_mesh(cls, nodes: Iterable[str], latency: float = 1.0) -> "Topology":
        """Every pair of nodes directly linked with the same latency."""
        topo = cls(nodes)
        names = topo.nodes
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                topo.add_link(a, b, latency)
        return topo

    @classmethod
    def star(cls, hub: str, leaves: Iterable[str], latency: float = 1.0) -> "Topology":
        """A hub node linked to every leaf."""
        leaves = list(leaves)
        topo = cls([hub, *leaves])
        for leaf in leaves:
            topo.add_link(hub, leaf, latency)
        return topo

    @classmethod
    def line(cls, nodes: Iterable[str], latency: float = 1.0) -> "Topology":
        """Nodes linked in a chain, in the given order."""
        names = list(nodes)
        topo = cls(names)
        for a, b in zip(names, names[1:]):
            topo.add_link(a, b, latency)
        return topo

    def add_node(self, node: str) -> None:
        """Add a node (idempotent)."""
        if node not in self._nodes:
            self._nodes[node] = None
            self._adj[node] = []
            self._version[0] += 1

    def add_link(self, a: str, b: str, latency: float = 1.0) -> None:
        """Add an undirected link; both endpoints must already exist."""
        for end in (a, b):
            if end not in self._nodes:
                raise NetworkError(f"unknown node {end!r}")
        if a == b:
            raise NetworkError(f"self-link on node {a!r}")
        key = frozenset((a, b))
        if key in self._links:
            raise NetworkError(f"duplicate link {a}-{b}")
        link = Link(a, b, latency)
        link._version = self._version  # share the generation cell
        self._links[key] = link
        self._adj[a].append(link)
        self._adj[b].append(link)
        self._version[0] += 1

    # -- link state ----------------------------------------------------

    def link(self, a: str, b: str) -> Link:
        """The link between ``a`` and ``b``; raises if absent."""
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise NetworkError(f"no link {a}-{b}") from None

    # -- queries -------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """All node names, in insertion order."""
        return list(self._nodes)

    @property
    def links(self) -> list[Link]:
        """All links, in insertion order."""
        return list(self._links.values())

    def neighbors(self, node: str) -> list[str]:
        """Nodes adjacent to ``node`` via currently-up links."""
        return [
            link.b if link.a == node else link.a
            for link in self._adj[node]
            if link.up
        ]

    def reachable(self, src: str, dst: str) -> bool:
        """True if a path of up links connects ``src`` and ``dst``."""
        return self.path_latency(src, dst) is not None

    def path_latency(self, src: str, dst: str) -> float | None:
        """Latency of the cheapest up-path, or None if disconnected.

        Results are memoized per link-state generation: the network
        layer asks this question twice per message (admission check at
        send, re-check at delivery), which made per-call Dijkstra the
        single hottest function in E15-class runs.  Any link flip or
        structural edit invalidates the whole memo.
        """
        if not self.cache_paths:
            return self._path_latency_uncached(src, dst)
        if self._cache_version != self._version[0]:
            self._path_cache.clear()
            self._cache_version = self._version[0]
        key = (src, dst)
        cache = self._path_cache
        if key in cache:
            return cache[key]
        latency = self._path_latency_uncached(src, dst)
        cache[key] = latency
        cache[(dst, src)] = latency  # undirected: symmetric by definition
        return latency

    def _path_latency_uncached(self, src: str, dst: str) -> float | None:
        for end in (src, dst):
            if end not in self._nodes:
                raise NetworkError(f"unknown node {end!r}")
        if src == dst:
            return 0.0
        dist = {src: 0.0}
        heap: list[tuple[float, str]] = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if node == dst:
                return d
            if d > dist.get(node, float("inf")):
                continue
            for link in self._adj[node]:
                if not link.up:
                    continue
                nxt = link.b if link.a == node else link.a
                nd = d + link.latency
                if nd < dist.get(nxt, float("inf")):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
        return None

    def components(self) -> list[set[str]]:
        """Connected components under the current link state."""
        seen: set[str] = set()
        comps: list[set[str]] = []
        for root in self._nodes:
            if root in seen:
                continue
            comp = {root}
            frontier = [root]
            while frontier:
                node = frontier.pop()
                for nxt in self.neighbors(node):
                    if nxt not in comp:
                        comp.add(nxt)
                        frontier.append(nxt)
            seen |= comp
            comps.append(comp)
        return comps
