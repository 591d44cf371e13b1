"""The serving runner: one job at a time through the shared executor.

This is the ``run()`` half of the submit/run split (seisflows'
``Cluster.submit()`` hands work to a workload manager that executes it;
here the daemon's protocol layer is the submitter and this module the
manager). Both halves run on the daemon's one event loop, so the runner
writes the job record in place: nothing else can observe it mid-update.
Every job routes through :func:`repro.exec.execute_specs` with one
shared :class:`~repro.exec.cache.ResultCache`, which is what makes the
daemon worth sharing:

* the **warm dataset pool** — datasets are process-memoized by
  ``load_dataset``, so the first job to touch (name, size) pays
  generation and every later job reuses the object;
* the **warm result cache** — content-addressed cells survive across
  jobs *and* across clients, so overlapping submissions replay
  byte-identical results instead of recomputing.

Because cells execute through the very same code path as a one-shot
``repro grid``, a served result is bit-equal to the grid the client
would have computed alone (``ResultGrid.same_results`` plus
byte-identical per-cell journals) — the serving layer adds queueing,
never new numbers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

from ..exec.cache import ResultCache
from ..exec.executor import execute_specs
from ..exec.progress import SOURCE_CACHE, CellEvent
from ..exec.retry import ExecutorError
from ..exec.serialize import result_to_payload
from ..obs.hostclock import host_now
from .protocol import (
    DEADLINE_EXCEEDED,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    Job,
)

__all__ = ["JobInterrupted", "JobRunner"]


class JobInterrupted(Exception):
    """Raised inside the progress hook to stop a running job's grid.

    The progress callback fires at every cell boundary *outside* the
    executor's retry machinery, so raising here unwinds cleanly out of
    :func:`execute_specs` — the cooperative path that makes running
    jobs cancellable (``serve-ctl cancel``, deadline expiry, shutdown)
    without killing the daemon's loop.
    """


class JobRunner:
    """Executes admitted jobs against the shared warm cache pool."""

    def __init__(
        self,
        cache: Union[None, str, Path, ResultCache],
        jobs: int = 1,
        cache_budget: Optional[int] = None,
    ) -> None:
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache, max_cells=cache_budget)
        self.cache = cache
        self.jobs = max(1, jobs)

    def run_job(self, job: Job,
                pump: Optional[Callable[[], None]] = None) -> None:
        """Execute one job's grid, writing its progress onto ``job``.

        At every cell boundary the rendered payload lands on the job
        (in plan order, with its cache-hit or executed count), then
        ``pump`` runs — the daemon's zero-timeout socket poll, which
        answers requests and may set ``job.cancel_requested``. A
        cancel (or shutdown) seen there, or a passed deadline, stops
        the grid right at that boundary with the completed payload
        prefix intact. The job always ends terminal: done with its
        ``cost.dollars``, cancelled, or failed on an executor-level
        error (retry exhaustion, broken cache) instead of killing the
        daemon.
        """

        def progress(event: CellEvent) -> None:
            job.payloads.append(result_to_payload(event.result))
            if event.source == SOURCE_CACHE:
                job.cache_hits += 1
            else:
                job.executed += 1
            if pump is not None:
                pump()
            served = f"{len(job.payloads)} of {job.request.cells} cells"
            if job.cancel_requested:
                raise JobInterrupted(f"cancelled after {served}")
            if job.expired(host_now()):
                raise JobInterrupted(f"{DEADLINE_EXCEEDED} after {served}")

        try:
            execution = execute_specs(
                [job.request.to_spec()],
                jobs=self.jobs,
                cache=self.cache,
                progress=progress,
            )
        except JobInterrupted as exc:
            job.state, job.error = JOB_CANCELLED, str(exc)
            return
        except ExecutorError as exc:
            job.state, job.error = JOB_FAILED, str(exc)
            return
        job.state = JOB_DONE
        job.cost_dollars = _metric(execution, "cost.dollars")


def _metric(execution, name: str) -> float:
    try:
        return float(execution.observation.metrics.value(name))
    except KeyError:
        return 0.0
