"""The trace-event taxonomy: every typed event the library emits.

One module-level constant per event type keeps emit sites, tests, and
the documentation (``docs/observability.md``) in agreement.  Event
types are dotted names grouped by subsystem; consumers filter with
simple prefix matching (``tracer.counts("message.")``).
"""

from __future__ import annotations

# -- network (repro.net.network) --------------------------------------
MESSAGE_SEND = "message.send"  # every Network.send, held or not
MESSAGE_DELIVER = "message.deliver"  # handler actually invoked
MESSAGE_HOLD = "message.hold"  # held at the sender's or receiver's edge
MESSAGE_RELEASE = "message.release"  # resumed by a topology change

# -- fault injection (repro.net.faults) -------------------------------
FAULT_DROP = "fault.drop"  # injected message loss
FAULT_DUPLICATE = "fault.duplicate"  # injected duplicate delivery
FAULT_FLAP_DOWN = "fault.flap.down"  # transient link flap: link cut
FAULT_FLAP_UP = "fault.flap.up"  # transient link flap: link revived
FAULT_CRASH_SKIPPED = "fault.crash.skipped"  # crash episode vetoed

# -- reliable delivery (repro.net.reliable) ---------------------------
RETRANS_SEND = "retrans.send"  # retransmission of an unacked packet
RETRANS_ACK = "retrans.ack"  # ack processed at the sender
RETRANS_DUPLICATE = "retrans.duplicate"  # receiver-side dedup drop
RETRANS_BUFFER = "retrans.buffer"  # out-of-order packet buffered
RETRANS_EXHAUSTED = "retrans.exhausted"  # retry budget spent, gave up

# -- transactions (repro.core.system) ---------------------------------
TXN_SUBMIT = "txn.submit"
TXN_COMMIT = "txn.commit"
TXN_REJECT = "txn.reject"
TXN_ABORT = "txn.abort"
TXN_TIMEOUT = "txn.timeout"

# -- causal lineage spans (repro.obs.lineage; see docs/observability.md).
# A span covers one update transaction from initiation to its terminal
# status; the lineage.* events stamp the same causal identity on every
# stage of the propagation path so the offline auditor
# (repro.analysis.audit) can rebuild the happens-before graph.
SPAN_BEGIN = "span.begin"  # update accepted: the span opens
SPAN_END = "span.end"  # tracker terminal: the span closes
LINEAGE_COMMIT = "lineage.commit"  # versions minted at the agent's node
LINEAGE_SEND = "lineage.send"  # batch handed to the broadcast
LINEAGE_DELIVER = "lineage.deliver"  # batch unpacked at one receiver
LINEAGE_BUFFER = "lineage.buffer"  # admission parked an out-of-order qt
LINEAGE_ENQUEUE = "lineage.enqueue"  # qt entered the apply queue
SYSTEM_CATALOG = "system.catalog"  # fragment map for offline audits

# -- quasi-transaction installs (repro.replication.apply) -------------
QT_INSTALL = "qt.install"  # remote quasi-transaction installed

# -- replication pipeline (repro.replication) -------------------------
# Batch-flush events only fire when batching is configured, so the
# default (unbatched) wire traces stay byte-identical to the seed.
QT_BATCH_FLUSH = "replication.batch.flush"  # QtBatch sealed + broadcast
BACKPRESSURE_ENGAGE = "replication.backpressure.engage"  # queue over bound
BACKPRESSURE_RELEASE = "replication.backpressure.release"  # queue drained
BACKPRESSURE_THROTTLE = "replication.backpressure.throttle"  # submit deferred
BACKPRESSURE_RESUME = "replication.backpressure.resume"  # deferred re-gated

# -- quorum reads (repro.replication.quorum) --------------------------
# Reads of fragments the submitting node does not replicate: a version
# vote over the fragment's replica set, resolved at read-quorum size.
QUORUM_READ_BEGIN = "quorum.read.begin"  # fan-out to the replica set
QUORUM_READ_REPLY = "quorum.read.reply"  # one replica's version vote
QUORUM_READ_RESOLVE = "quorum.read.resolve"  # quorum reached, versions chosen
QUORUM_READ_TIMEOUT = "quorum.read.timeout"  # quorum not reached in time
QUORUM_READ_RETRY = "quorum.read.retry"  # lost quorum mid-flight, re-fanned

# -- agent movement (repro.core.movement) -----------------------------
TOKEN_MOVE_REQUESTED = "token.move.requested"
TOKEN_MOVE_DEPART = "token.move.depart"
TOKEN_MOVE_ARRIVE = "token.move.arrive"

# -- node failure model (repro.core.system) ---------------------------
NODE_CRASH = "node.crash"
NODE_RECOVER = "node.recover"

# -- checkpoint & catch-up subsystem (repro.recovery) ------------------
RECOVERY_CHECKPOINT = "recovery.checkpoint"  # fragment checkpoint taken
RECOVERY_PRUNE = "recovery.prune"  # archive pruned behind watermark
RECOVERY_WAL_TRUNCATE = "recovery.wal.truncate"  # WAL prefix dropped
RECOVERY_CATCHUP_REQUEST = "recovery.catchup.request"  # cursors to donor
RECOVERY_CATCHUP_DELTA = "recovery.catchup.delta"  # seq range shipped
RECOVERY_CATCHUP_SNAPSHOT = "recovery.catchup.snapshot"  # ckpt shipped
RECOVERY_CATCHUP_DONE = "recovery.catchup.done"  # rejoiner fully served

# -- availability supervisor (repro.availability) ----------------------
# Heartbeat failure detection, automatic agent failover, epoch cuts,
# demotion of stale ex-homes, and online replica-set reconfiguration.
AVAIL_SUSPECT = "avail.suspect"  # heartbeat misses crossed the threshold
AVAIL_FAILOVER_BEGIN = "avail.failover.begin"  # succession poll started
AVAIL_FAILOVER_DONE = "avail.failover.done"  # successor holds the token
AVAIL_FAILOVER_ABORT = "avail.failover.abort"  # no quorum / raced a move
AVAIL_EPOCH_CUT = "avail.epoch.cut"  # successor opened a new epoch
AVAIL_DEMOTE = "avail.demote"  # stale ex-home discarded its suffix
SYSTEM_RECONFIG = "system.reconfig"  # epoch-stamped replica-set change
RECONFIG_SYNCED = "system.reconfig.synced"  # joiner caught up, counts now

# -- partitions (repro.net.partition) ---------------------------------
PARTITION_CUT = "partition.cut"
PARTITION_HEAL = "partition.heal"

# -- warnings ---------------------------------------------------------
WARN_MULTI_FRAGMENT_AGENT = "warn.multi_fragment_agent"

# -- simulator (repro.sim.simulator); excluded by default, see Tracer --
SIM_FIRE = "sim.fire"

ALL_EVENT_TYPES = tuple(
    value
    for name, value in sorted(globals().items())
    if name.isupper() and isinstance(value, str)
)

#: Event types a fresh :class:`~repro.obs.trace.Tracer` suppresses.
#: ``sim.fire`` is one event per simulator callback — megabytes per
#: run — so it is opt-in (``tracer.exclude.discard(SIM_FIRE)``).
DEFAULT_EXCLUDE = frozenset({SIM_FIRE})

#: What the asyncio backend's tracer suppresses: the firehose plus the
#: per-frame wire chatter.  Heartbeats alone are ~1 500 ``message.*``
#: events a second on an *idle* five-node cluster — they would push a
#: failover out of the ring within a minute — and the ring's readers
#: (auditor, availability accountant, dashboard) use none of the
#: three; the ``net.*``/``retrans.*`` counters carry the totals.
#: Opt back in with ``tracer.exclude.discard(MESSAGE_SEND)``.
LIVE_EXCLUDE = DEFAULT_EXCLUDE | {MESSAGE_SEND, MESSAGE_DELIVER, RETRANS_ACK}
