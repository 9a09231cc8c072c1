"""HTTP front door for a live (asyncio-backed) fragmented database.

:class:`~repro.serve.app.FrontDoor` exposes the database over plain
stdlib HTTP with **location-transparent routing**: clients address
*objects*, the front door resolves the owning fragment and its agent's
current home node through the catalog on every attempt, so a mid-run
failover (the availability supervisor re-homing an agent) is invisible
to the client beyond added latency — the write lands wherever the
agent lives *now*.

Endpoints::

    POST /updates    submit one write   {"object": .., "value": ..}
    POST /reads      read one object    {"object": .., "at": node?}
    GET  /fragments  catalog snapshot (fragment -> agent/home/replicas)
    GET  /updates    recent request trackers (txn, status, reason)
    GET  /metrics    the metrics registry snapshot
    GET  /           live dashboard (HTML; /data.json + /events SSE)
    GET  /healthz    liveness probe

Writes that arrive mid-failover are **queued and retried** with a
bounded admission semaphore: a rejection with a transient cause
(``RefusalCause``: agent home down, token in transit) is retried with a
fresh transaction until the supervisor completes the failover or the
deadline passes; terminal rejections surface as 409 immediately.
"""

from repro.serve.app import FrontDoor, serve_frontdoor

__all__ = ["FrontDoor", "serve_frontdoor"]
