"""repro.serve: the benchmark-as-a-service layer over the grid executor.

One long-lived daemon (``repro serve``) accepts typed experiment
submissions from many concurrent clients over a local socket, on one
event loop that owns every piece of serving state (so nothing is
locked), orders them with weighted fair queueing under strict priority
classes, bounds its backlog with admission control, and executes
everything through the ordinary :mod:`repro.exec` executor against one
shared warm dataset + result-cache pool — so a served grid is bit-equal
to the one-shot ``repro grid`` run the client would have computed
alone, and overlapping submissions pay for each distinct cell once.

The package splits along the protocol/policy/mechanism seams:

* :mod:`~repro.serve.protocol` — the canonical-JSON line protocol and
  the typed, validated :class:`JobRequest`;
* :mod:`~repro.serve.queue` — :class:`FairQueue`: start-time fair
  queueing, priorities, admission control;
* :mod:`~repro.serve.scheduler` — :class:`JobRunner`: the bridge into
  ``execute_specs`` and the shared cache;
* :mod:`~repro.serve.daemon` — :class:`ServeDaemon`: the ``selectors``
  loop over sockets, queue and runner, ``_server.jsonl``;
* :mod:`~repro.serve.client` — :class:`ServeClient`: backoff on
  rejection, resumable result streams, grid reconstruction;
* :mod:`~repro.serve.stats` — latency percentiles, hit-rate, and the
  per-client bill behind ``repro report``'s serving section;
* :mod:`~repro.serve.loadgen` — the 40-cell catalog the repo
  benchmark's serve-zipf workload draws its Zipf traffic from
  (``python3 perfbench/run.py --workload serve-zipf``).
"""

from .client import (
    QueueFullError,
    ServeClient,
    ServeError,
    grid_from_payloads,
)
from .daemon import DEFAULT_SOCKET, ServeDaemon, parse_address
from .protocol import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    PROTOCOL_VERSION,
    Job,
    JobRequest,
    ProtocolError,
)
from .queue import FairQueue
from .scheduler import JobInterrupted, JobRunner
from .stats import ServerStats, percentile, server_observation

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "JobRequest",
    "Job",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "FairQueue",
    "JobInterrupted",
    "JobRunner",
    "ServeDaemon",
    "DEFAULT_SOCKET",
    "parse_address",
    "ServeClient",
    "ServeError",
    "QueueFullError",
    "grid_from_payloads",
    "ServerStats",
    "percentile",
    "server_observation",
]
