"""Partition schedules: scripted network failures and heals."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.errors import NetworkError
from repro.net.network import Network
from repro.net.topology import Link
from repro.obs import taxonomy


@dataclass(eq=False)
class PartitionSpec:
    """One partition episode — and the holder that keeps its links down.

    The network is severed into the given ``groups`` at ``start`` and
    healed at ``end``.  Nodes not mentioned in any group remain
    connected to each other (links among them are untouched), but all
    links crossing between two distinct groups are held down by this
    episode (it hashes by identity, so two episodes over the same
    groups are two holders).  Healing releases this episode's holds
    only: a link another active episode, a crashed endpoint or an open
    flap window also holds stays down until they release it too.
    """

    start: float
    end: float
    groups: Sequence[Iterable[str]]
    label: str = ""
    links_cut: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise NetworkError(
                f"partition must end after it starts ({self.start}..{self.end})"
            )

    @property
    def duration(self) -> float:
        """How long the partition lasts."""
        return self.end - self.start


class PartitionManager:
    """Applies :class:`PartitionSpec` episodes to a :class:`Network`.

    Call :meth:`install` once after constructing the network; each
    episode schedules a cut event and a heal event on the simulator.
    An active episode (scripted, or opened by :meth:`partition_now`)
    holds the links crossing its groups through
    :meth:`Network.change_links`; a heal releases exactly those holds,
    so overlap with other episodes, crashes and flaps needs no
    arbitration here.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.tracer = network.tracer
        self.metrics = network.metrics
        self.episodes: list[PartitionSpec] = []
        self.partitions_applied = 0
        self.heals_applied = 0
        # Active episodes and the links each holds down.
        self._active: dict[PartitionSpec, list[Link]] = {}
        self._c_cuts = self.metrics.counter("partition.links_cut")
        self._c_healed = self.metrics.counter("partition.links_healed")

    def install(self, episodes: Iterable[PartitionSpec]) -> None:
        """Schedule all episodes on the network's simulator."""
        for spec in episodes:
            self.episodes.append(spec)
            self.network.sim.schedule_at(
                spec.start,
                lambda spec=spec: self._apply(spec),
                label=f"partition start {spec.label}",
            )
            self.network.sim.schedule_at(
                spec.end,
                lambda spec=spec: self._heal([spec], spec.label),
                label=f"partition heal {spec.label}",
            )

    def partition_now(self, groups: Sequence[Iterable[str]]) -> int:
        """Immediately sever the network into the given groups.

        The episode stays active until :meth:`heal_now` (scripted
        episodes end at their scheduled heal, or at an earlier
        :meth:`heal_now`).  Returns how many links it took down.
        """
        spec = PartitionSpec(self.network.sim.now, math.inf, groups, "(now)")
        self._apply(spec)
        return spec.links_cut

    def heal_now(self) -> int:
        """End every active episode; returns how many links came up."""
        return self._heal(list(self._active), "(now)")

    # -- internals ------------------------------------------------------

    def _cross_links(self, groups: Sequence[Iterable[str]]) -> list[Link]:
        materialized = [set(group) for group in groups]
        for i, group_a in enumerate(materialized):
            for group_b in materialized[i + 1 :]:
                if group_a & group_b:
                    raise NetworkError("partition groups overlap")
        links = []
        for link in self.network.topology.links:
            ends = link.endpoints()
            if sum(1 for group in materialized if ends & group) >= 2:
                links.append(link)
        return links

    def _apply(self, spec: PartitionSpec) -> None:
        links = self._active[spec] = self._cross_links(spec.groups)
        spec.links_cut = sum(link.up for link in links)
        self._c_cuts.inc(spec.links_cut)
        self.partitions_applied += 1
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.PARTITION_CUT,
                label=spec.label,
                groups=[sorted(group) for group in spec.groups],
                links_cut=spec.links_cut,
            )
        self.network.change_links(hold=[(link, spec) for link in links])

    def _heal(self, specs: list[PartitionSpec], label: str) -> int:
        # An episode an earlier heal_now already ended releases nothing.
        releases = [
            (link, spec)
            for spec in specs
            for link in self._active.pop(spec, ())
        ]
        ending = set(specs)
        healed = sum(
            link.released_by(ending) for link in {link for link, _ in releases}
        )
        self.heals_applied += 1
        self._c_healed.inc(healed)
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.PARTITION_HEAL, label=label, links_healed=healed
            )
        self.network.change_links(release=releases)
        return healed
