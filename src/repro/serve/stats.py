"""Server-side aggregation: latency percentiles, hit-rate, per-client bills.

Every job the daemon finishes feeds one :class:`ServerStats` instance:
queue-wait / service-time / end-to-end latency samples (host seconds —
serving performance is a property of the simulator, not the simulation),
cache-hit and execution counters, admission rejections, and each
client's simulated bill (the sum of its jobs' ``cost.dollars``, which
*is* deterministic).

The stats render two ways:

* ``snapshot()`` — the ``stats`` protocol response;
* ``observation()`` — the daemon's own journal, written to
  ``_server.jsonl`` at shutdown: meta ``kind="server"`` with the
  headline aggregates, one ``job`` span per served job, and
  queue-wait/service-time histograms — the serving counterpart of the
  executor's ``_scheduler.jsonl``, consumed by ``repro report`` and
  ``repro trace --summary``.

Percentiles use the deterministic nearest-rank definition (no
interpolation), so p50/p99 of the same sample set is always the same
member of it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..obs import RunObservation, Tracer
from .protocol import DEADLINE_EXCEEDED, JOB_DONE, JOB_FAILED, Job

__all__ = ["percentile", "ServerStats", "server_observation"]

#: snapshot fields copied into the server journal's meta
_META_FIELDS = (
    "jobs", "rejected", "shed", "deadline_expired", "evictions", "cells",
    "cache_hits", "executed", "cache_hit_rate", "dollars", "clients",
    "p50_latency", "p99_latency", "per_client",
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value covering ``q`` percent.

    Deterministic and member-of-sample by construction; 0 on an empty
    sample. ``q`` is in percent (50 → median, 99 → p99).
    """
    if not values:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class ServerStats:
    """Everything the daemon aggregates across its lifetime."""

    def __init__(self, start_host: float = 0.0) -> None:
        self.start_host = start_host
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.rejected = 0
        #: queued jobs displaced by higher-priority submissions
        self.shed = 0
        #: jobs cancelled because their deadline passed (queued or running)
        self.deadline_expired = 0
        self.cells = 0
        self.cache_hits = 0
        self.executed = 0
        self.dollars = 0.0
        self.queue_waits: List[float] = []
        self.services: List[float] = []
        self.latencies: List[float] = []
        #: client → {"jobs", "cells", "dollars"}
        self.per_client: Dict[str, Dict[str, float]] = {}

    # -- recording ---------------------------------------------------------

    def _client(self, client: str) -> Dict[str, float]:
        return self.per_client.setdefault(
            client, {"jobs": 0.0, "cells": 0.0, "dollars": 0.0}
        )

    def record_job(self, job: Job) -> None:
        """Fold one terminal job in (cancelled jobs are counted only)."""
        if job.state == JOB_DONE:
            self.jobs_done += 1
        elif job.state == JOB_FAILED:
            self.jobs_failed += 1
        else:
            self.jobs_cancelled += 1
            if (job.error or "").startswith(DEADLINE_EXCEEDED):
                self.deadline_expired += 1
            return  # cancelled: no samples, no bill
        self.cells += job.request.cells
        self.cache_hits += job.cache_hits
        self.executed += job.executed
        self.dollars += job.cost_dollars
        self.queue_waits.append(job.queue_wait)
        self.services.append(job.service_seconds)
        self.latencies.append(job.latency)
        account = self._client(job.request.client)
        account["jobs"] += 1
        account["cells"] += job.request.cells
        account["dollars"] += job.cost_dollars

    def record_rejection(self, client: str) -> None:
        """Count one admission-control rejection."""
        self.rejected += 1
        self._client(client)  # a rejected client still appears in the bill

    # -- views -------------------------------------------------------------

    @property
    def jobs(self) -> int:
        """Jobs that reached a terminal state (any of the three)."""
        return self.jobs_done + self.jobs_failed + self.jobs_cancelled

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of served cells replayed from the shared cache."""
        return self.cache_hits / self.cells if self.cells else 0.0

    def snapshot(self, evictions: int = 0) -> dict:
        """The aggregate view: the body of the ``stats`` response.

        ``evictions`` is the shared result cache's own counter, read by
        the caller when it asks (the cache is not the stats' to mirror).
        """
        return {
            "jobs": self.jobs,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "rejected": self.rejected,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "evictions": evictions,
            "cells": self.cells,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "cache_hit_rate": self.cache_hit_rate,
            "dollars": self.dollars,
            "clients": len(self.per_client),
            "p50_latency": percentile(self.latencies, 50),
            "p99_latency": percentile(self.latencies, 99),
            "p50_queue_wait": percentile(self.queue_waits, 50),
            "p99_queue_wait": percentile(self.queue_waits, 99),
            "p50_service": percentile(self.services, 50),
            "p99_service": percentile(self.services, 99),
            "per_client": {
                client: dict(account)
                for client, account in sorted(self.per_client.items())
            },
        }


def server_observation(
    stats: ServerStats,
    address: str,
    tracer: Optional[Tracer] = None,
    evictions: int = 0,
) -> RunObservation:
    """Assemble the daemon's journalable observation (``_server.jsonl``).

    ``tracer`` is the daemon's live host-clock tracer (spans already
    recorded per job); tests may pass a fresh one. ``evictions`` is the
    shared result cache's eviction count.
    """
    obs = RunObservation(tracer=tracer if tracer is not None else Tracer())
    metrics = obs.metrics
    metrics.counter("serve.jobs").inc(stats.jobs)
    metrics.counter("serve.jobs_failed").inc(stats.jobs_failed)
    metrics.counter("serve.jobs_cancelled").inc(stats.jobs_cancelled)
    metrics.counter("serve.rejected").inc(stats.rejected)
    metrics.counter("serve.shed").inc(stats.shed)
    metrics.counter("serve.deadline_expired").inc(stats.deadline_expired)
    metrics.counter("serve.cache_evictions").inc(evictions)
    metrics.counter("serve.cells").inc(stats.cells)
    metrics.counter("serve.cache_hits").inc(stats.cache_hits)
    metrics.counter("serve.cells_executed").inc(stats.executed)
    metrics.counter("cost.dollars").inc(stats.dollars)
    for sample in stats.queue_waits:
        metrics.histogram("serve.queue_wait_seconds").observe(sample)
    for sample in stats.services:
        metrics.histogram("serve.service_seconds").observe(sample)
    for sample in stats.latencies:
        metrics.histogram("serve.latency_seconds").observe(sample)
    snapshot = stats.snapshot(evictions)
    obs.meta = {"kind": "server", "address": address}
    obs.meta.update((name, snapshot[name]) for name in _META_FIELDS)
    return obs
