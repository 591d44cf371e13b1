"""Shared plumbing: checkout layout, host context, statistics, records.

Everything the benchmark writes lands under ``.perfbench/`` at the root
of the checkout (caches, daemon scratch, span dumps, run records), so a
run reads and writes nothing outside the tree it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: the checkout this benchmark measures (the parent of ``perfbench/``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch and run records; listed in the root ``.gitignore``
WORK = ROOT / ".perfbench"

#: worker processes the grid workloads ask for (clamped to the host)
GRID_JOBS = 2
#: set-ups per run (probes or daemon starts); ``setup_s`` is their median
SETUP_REPEATS = 5


class LayoutError(RuntimeError):
    """The checkout does not hold the program this benchmark measures."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, or fail loudly.

    An installed copy elsewhere on ``sys.path`` would silently measure
    the wrong code, so the imported package must live under ``SRC``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise LayoutError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # pool workers and the serve daemon resolve ``repro`` the same way
    paths = os.environ.get("PYTHONPATH", "")
    if str(SRC) not in paths.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), paths) if p)
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise LayoutError(f"repro imported from {origin}, not from {SRC}")


def now() -> float:
    """Monotonic host seconds (the same clock the program's host door reads)."""
    return time.perf_counter()


def scratch_dir(name: str) -> Path:
    """A fresh, empty directory under ``.perfbench/`` for this process."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value covering ``q`` percent."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# -- host context -----------------------------------------------------------


def host_cpus() -> int:
    """CPUs this process may run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def clamp_jobs(requested: int) -> Dict[str, object]:
    """Clamp a worker count to the host; flag oversubscription."""
    cpus = host_cpus()
    jobs = max(1, min(requested, cpus))
    return {"requested": requested, "jobs": jobs, "host_cpus": cpus,
            "oversubscribed": requested > cpus}


def load_average() -> List[float]:
    try:
        return [round(x, 3) for x in os.getloadavg()]
    except OSError:  # pragma: no cover - unavailable on some platforms
        return []


def wait_children(timeout: float = 30.0) -> None:
    """Wait until the pool workers this process started have ended.

    The executor shuts its pool down without waiting, so workers of the
    last pass may still be exiting; reaping them also puts their peak
    resident set into ``getrusage``.
    """
    import multiprocessing

    deadline = now() + timeout
    while multiprocessing.active_children() and now() < deadline:
        time.sleep(0.02)


def peak_rss_mb() -> float:
    """Largest resident set of this process and its ended children, MiB.

    ``ru_maxrss`` is KiB on Linux; for ``RUSAGE_CHILDREN`` it is the peak
    of the largest single child, not a sum.
    """
    wait_children()
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """A live process's high-water resident set (``VmHWM``), MiB."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


# -- set-up probe -----------------------------------------------------------

_PROBE = """
import sys
sys.path.insert(0, {src!r})
from repro.core.runner import ExperimentSpec, run_cell
from repro.datasets.registry import load_dataset
from repro.exec import execute_specs
for name in {datasets!r}:
    load_dataset(name, {size!r})
"""


def probe_setup(datasets: Iterable[str], size: str) -> float:
    """Host seconds for a fresh interpreter to import the program and
    generate ``datasets`` — the set-up every grid run pays once."""
    code = _PROBE.format(src=str(SRC), datasets=tuple(datasets), size=size)
    start = now()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=str(ROOT),
                   timeout=120)
    return now() - start


# -- fingerprints and records -----------------------------------------------


def digest(parts: Iterable[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def write_record(workload: str, seed: int, trace: bool, record: dict) -> Path:
    """Keep the run's full record (fingerprint, host context, samples)."""
    out = WORK / "records"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
