"""Online replica-set reconfiguration: add/remove a replica, epoch-stamped.

The paper's conclusion points at databases "that are not fully
replicated"; PR 7 added static per-fragment replica sets, and this
module makes them *dynamic*: a replica can join or leave a fragment's
set while the fragment keeps committing updates.

Every change bumps the fragment's **membership epoch**
(``FragmentedDatabase.replication_epoch``), which is stamped into the
``system.catalog`` trace event and keys the fragment's broadcast
stream (``f:<name>@e<epoch>``), so the offline auditor can evaluate
replication completeness against the membership *in force when each
update was installed*.

A **joiner** is brought current through the PR 5 cursor-based catch-up
path (checkpoint + tail shipped by a donor) and is tracked in
``FragmentedDatabase.syncing_replicas`` until the catch-up completes;
while syncing it does not count toward read quorums, succession
majorities, or the compaction low-watermark — a replica that is still
downloading history can neither vouch for the present nor pin the
past.  A **leaver** hands nothing over (the agent home may never
leave); its frozen fragment state — store objects, stream bookkeeping,
WAL records, durable checkpoint — is purged so a later crash/recover
cannot resurrect a stale copy the consistency checker would flag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import DesignError
from repro.obs import taxonomy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import DatabaseNode
    from repro.core.system import FragmentedDatabase


class Reconfigurator:
    """Epoch-stamped add/remove of fragment replicas, online."""

    def __init__(self, system: "FragmentedDatabase") -> None:
        self.system = system
        self._c_reconfigs = system.metrics.counter("avail.reconfigurations")
        self._c_synced = system.metrics.counter("avail.joiners_synced")

    def _bump_epoch(self, fragment: str) -> int:
        epoch = self.system.replication_epoch.get(fragment, 0) + 1
        self.system.replication_epoch[fragment] = epoch
        return epoch

    def _trace(
        self,
        fragment: str,
        epoch: int,
        added: str | None = None,
        removed: str | None = None,
    ) -> None:
        system = self.system
        self._c_reconfigs.inc()
        if system.tracer.enabled:
            system.tracer.emit(
                taxonomy.SYSTEM_RECONFIG,
                fragment=fragment,
                epoch=epoch,
                replicas=list(system.replica_set(fragment)),
                syncing=sorted(system.syncing_replicas.get(fragment, ())),
                added=added,
                removed=removed,
            )

    # -- joining ------------------------------------------------------------

    def add(self, fragment: str, node_name: str) -> None:
        """Add ``node_name`` to the fragment's replica set, online.

        The joiner starts *syncing*: it receives the fragment's new
        traffic immediately (buffered by ordered admission until the
        history beneath arrives) and is brought current through the
        recovery manager's catch-up, seeded with a donor snapshot so
        objects the stream never rewrote come across too.  It counts
        toward quorums only once :meth:`note_caught_up` fires.
        """
        system = self.system
        if fragment not in system.catalog:
            raise DesignError(f"unknown fragment {fragment!r}")
        restricted = system.replication.get(fragment)
        if restricted is None:
            raise DesignError(
                f"fragment {fragment!r} is fully replicated; online "
                f"reconfiguration applies to restricted replica sets"
            )
        if node_name not in system.nodes:
            raise DesignError(f"unknown node {node_name!r}")
        if node_name in restricted:
            raise DesignError(
                f"node {node_name!r} already replicates {fragment!r}"
            )
        node = system.nodes[node_name]
        if node.down:
            raise DesignError(f"cannot join crashed node {node_name!r}")
        epoch = self._bump_epoch(fragment)
        restricted.add(node_name)
        system.syncing_replicas.setdefault(fragment, set()).add(node_name)
        self._trace(fragment, epoch, added=node_name)
        system.recovery.catch_up(node, [fragment], want_snapshot=True)

    def note_caught_up(self, node: "DatabaseNode") -> None:
        """Catch-up completed at ``node``: any syncing joins finish.

        Also heals the crash-mid-sync case — recovery's own catch-up
        covers every replicated fragment, so its completion vouches
        for the joining one too.
        """
        system = self.system
        for fragment in sorted(system.syncing_replicas):
            syncing = system.syncing_replicas[fragment]
            if node.name not in syncing:
                continue
            syncing.discard(node.name)
            if not syncing:
                del system.syncing_replicas[fragment]
            self._c_synced.inc()
            if system.tracer.enabled:
                system.tracer.emit(
                    taxonomy.RECONFIG_SYNCED,
                    fragment=fragment,
                    node=node.name,
                    epoch=system.replication_epoch.get(fragment, 0),
                )

    # -- leaving ------------------------------------------------------------

    def remove(self, fragment: str, node_name: str) -> None:
        """Remove ``node_name`` from the fragment's replica set, online.

        The agent's home may not leave (move the agent first).  The
        leaver's copy is purged — store objects, stream state, WAL
        records, durable checkpoint — because a frozen replica that
        later crash-recovers would resurrect a stale copy.
        """
        system = self.system
        if fragment not in system.catalog:
            raise DesignError(f"unknown fragment {fragment!r}")
        restricted = system.replication.get(fragment)
        if restricted is None:
            raise DesignError(
                f"fragment {fragment!r} is fully replicated; online "
                f"reconfiguration applies to restricted replica sets"
            )
        if node_name not in restricted:
            raise DesignError(
                f"node {node_name!r} does not replicate {fragment!r}"
            )
        home = system.agent_of(fragment).home_node
        if node_name == home:
            raise DesignError(
                f"cannot remove the agent's home node {node_name!r} from "
                f"{fragment!r}; move the agent first"
            )
        epoch = self._bump_epoch(fragment)
        restricted.discard(node_name)
        syncing = system.syncing_replicas.get(fragment)
        if syncing is not None:
            syncing.discard(node_name)
            if not syncing:
                del system.syncing_replicas[fragment]
        self._purge(fragment, system.nodes[node_name])
        self._trace(fragment, epoch, removed=node_name)

    def _purge(self, fragment: str, node: "DatabaseNode") -> None:
        streams = node.streams
        objects = frozenset(
            self.system.fragment_objects(fragment, node.store)
        )
        streams.forget(fragment)
        streams.buffer.pop(fragment, None)
        streams.pending_cut.pop(fragment, None)
        for obj in objects:
            node.store.drop(obj)
        node.wal.truncate(fragment, 10**9, 10**9, objects)
        node.checkpoints.discard(fragment)
