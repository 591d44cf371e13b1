"""The serve workload: an open loop of Zipf-popular cells against ``repro serve``.

One client process drives a ``repro serve`` subprocess (``--jobs 1``,
loopback TCP, a 12-cell LRU cache budget over the 40-cell catalog of
:func:`repro.serve.loadgen.cell_catalog` at ``tiny`` size) through one
submit connection and one wait connection. Arrivals are seeded Poisson
at a fixed mean rate (the gaps are rescaled so every seed offers the
same number of jobs per second); each job is one catalog cell drawn
under Zipf(1.2) (the expected multiset per run, in seeded order). It is
an open loop: jobs are sent on schedule whether or not earlier ones
finished, so a stall shows up as latency.

Each job is timed from its scheduled send time to when the wait
connection sees it done. A job that is refused, fails or times out is
a failed operation and misses the latency limit. A seeded sample of the
served payloads must equal, bit for bit, the payload the one-shot
executor produces for the same cell.
"""

from __future__ import annotations

import json
import os
import queue
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT, SETUP_REPEATS, digest, median, now, percentile, process_peak_rss_mb,
    scratch_dir,
)
from speed import REF_UNIT_S, Calibration, calibrate, pinned, usable_cpus

#: mean offered load, jobs per second: about half the saturation rate of
#: the daemon on a 2-vCPU host whose cores are shared (~50 jobs/s when
#: the cores are contended, ~90 when they are quiet)
RATE = 25.0
#: fewest measured jobs per session, so p95 has at least 10 samples beyond it
MIN_JOBS = 200
#: jobs sent before measuring starts (cache fill, lazy imports); still checked
WARMUP_JOBS = 40
#: a served job meets the latency limit if done within this many seconds
LATENCY_LIMIT = 0.25
#: LRU budget of the daemon's result cache, in cells
CACHE_BUDGET = 12
ZIPF_S = 1.2
SIZE = "tiny"
#: served payloads compared against the one-shot executor per session
SPOT_CHECKS = 8
WAIT_TIMEOUT = 30.0
START_TIMEOUT = 60.0
#: the sender calibrates the daemon's CPU while no job is outstanding and
#: the next one is due no sooner than this many seconds
IDLE_GAP = 0.04
#: how often the sender looks for that idle moment while it waits
POLL = 0.002


def zipf_counts(count: int, cells: int) -> List[int]:
    """How often each catalog rank is drawn in ``count`` jobs under Zipf(s).

    Largest-remainder apportionment of the expected counts: every run
    serves the same multiset of cells, and the seed decides their order.
    """
    weights = [1.0 / ((rank + 1) ** ZIPF_S) for rank in range(cells)]
    total = sum(weights)
    exact = [count * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(cells), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_remainder[:count - sum(counts)]:
        counts[i] += 1
    return counts


def job_plan(seed: int, warmup: int, measured: int) -> List[Tuple[float, tuple]]:
    """(offset seconds, catalog cell) per job: seeded Poisson arrivals of
    Zipf-popular cells.

    The warm-up and the measured jobs are planned separately. Each part
    draws its cells as the Zipf-expected multiset in seeded order, and
    its Poisson gaps are rescaled to span exactly ``jobs / RATE``
    seconds, so every seed offers the same load and the same cell mix.
    """
    from repro.serve.loadgen import cell_catalog

    catalog = cell_catalog()
    rng = random.Random(seed)
    plan: List[Tuple[float, tuple]] = []
    at = 0.0
    for count in (warmup, measured):
        cells = [cell for cell, n in zip(catalog, zipf_counts(count, len(catalog)))
                 for _ in range(n)]
        rng.shuffle(cells)
        gaps = [rng.expovariate(RATE) for _ in range(count)]
        scale = (count / RATE) / sum(gaps)
        for gap, cell in zip(gaps, cells):
            at += gap * scale
            plan.append((at, cell))
    return plan


class Daemon:
    """A ``repro serve`` subprocess on a loopback port."""

    def __init__(self, workdir: Path, cpu: int, spans: Optional[Path] = None) -> None:
        self.workdir = workdir
        self.journal = workdir / "server.jsonl"
        serve_args = [
            "--socket", "127.0.0.1:0", "--cache-dir", str(workdir / "cache"),
            "--jobs", "1", "--cache-budget", str(CACHE_BUDGET),
            "--max-queue", "256", "--journal", str(self.journal),
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:  # the same daemon, with layer wrappers installed in-process
            command = [sys.executable, str(Path(__file__).with_name("traced_serve.py")),
                       str(spans), *serve_args]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        start = now()
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
            # the daemon and every thread it starts stay on one CPU
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        try:
            self.address = self._await_address()
            from repro.serve import ServeClient

            with ServeClient(self.address, client="perfbench-setup") as link:
                link.ping()
        except BaseException:
            self.kill()
            raise
        self.setup_s = now() - start

    def _await_address(self) -> str:
        deadline = now() + START_TIMEOUT
        while now() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
        raise RuntimeError(f"repro serve did not start (exit {self.proc.poll()})")

    def peak_rss_mb(self) -> Optional[float]:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ask for shutdown, then wait; kill if it will not go."""
        from repro.serve import ServeClient

        try:
            with ServeClient(self.address, client="perfbench-stop") as link:
                link.shutdown()
            self.proc.communicate(timeout=30)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def job_spans(self) -> Dict[str, Tuple[float, float]]:
        """job id -> (start, duration), daemon-relative, from its journal."""
        spans = {}
        for line in self.journal.read_text().splitlines():
            event = json.loads(line)
            if event.get("type") == "span" and event.get("name") == "job":
                spans[event["args"]["job"]] = (event["ts"], event["dur"])
        return spans


def _one_shot_payload(cell: tuple) -> dict:
    from repro.core.runner import ExperimentSpec
    from repro.exec import execute_specs, result_to_payload

    system, workload, dataset, machines = cell
    spec = ExperimentSpec(systems=(system,), workloads=(workload,),
                          datasets=(dataset,), cluster_sizes=(machines,),
                          dataset_size=SIZE)
    execution = execute_specs([spec], jobs=1, cache=None)
    return result_to_payload(execution.results[0])


def drive(daemon: Daemon, plan: List[Tuple[float, tuple]], seed: int,
          cpu: int) -> dict:
    """Send every planned job on schedule; collect timings and checks.

    While the daemon (on ``cpu``) has no job and the next is not due for
    a while, the sender calibrates that CPU: the units see the other
    tenants' load on it through the timed window, never the daemon's.
    """
    from repro.serve import ServeClient

    submit = ServeClient(daemon.address, client="perfbench")
    waiter_link = ServeClient(daemon.address, client="perfbench-wait")
    requests = [
        submit.request(systems=(s,), workloads=(w,), datasets=(d,),
                       cluster_sizes=(m,), dataset_size=SIZE).to_dict()
        for _, (s, w, d, m) in plan
    ]
    jobs: List[dict] = [{"cell": cell} for _, cell in plan]
    pending: "queue.Queue[Optional[int]]" = queue.Queue()
    finished: List[int] = []  # appended by the waiter only
    idle_units: List[float] = []

    def wait_all() -> None:
        while True:
            index = pending.get()
            if index is None:
                return
            job = jobs[index]
            try:
                reply = waiter_link.call({"op": "wait", "job": job["id"],
                                          "timeout": WAIT_TIMEOUT})
            except OSError as exc:
                job["error"] = f"wait: {exc}"
                finished.append(index)
                continue
            job["seen"] = now()
            finished.append(index)
            if not reply.get("ok"):
                job["error"] = str(reply.get("error"))
            elif reply.get("state") != "done":
                job["error"] = f"job {reply.get('state')}: {reply.get('message')}"

    waiter = threading.Thread(target=wait_all, name="perfbench-wait")
    waiter.start()
    try:
        origin = now() + 0.05
        accepted = 0
        for index, (offset, _) in enumerate(plan):
            due = origin + offset
            sampled = False
            while now() < due:
                if not sampled and due - now() > IDLE_GAP and len(finished) == accepted:
                    idle_units.append(calibrate([cpu]))
                    sampled = True
                time.sleep(max(0.0, min(due - now(), POLL)))
            job = jobs[index]
            job["due"], job["sent"] = due, now()
            reply = submit.call({"op": "submit", "job": requests[index]})
            job["acked"] = now()
            if reply.get("ok"):
                job["id"] = reply["job"]
                accepted += 1
                pending.put(index)
            else:
                job["error"] = f"refused: {reply.get('error')}"
    finally:
        pending.put(None)
        waiter.join(timeout=WAIT_TIMEOUT * 2)
        waiter_link.close()
    if waiter.is_alive():
        raise RuntimeError("wait connection did not finish")

    before = now()
    stats = submit.stats()
    after = now()
    daemon_origin = (before + after) / 2 - float(stats["uptime"])
    rss = daemon.peak_rss_mb()

    # bit-equality spot check on a seeded sample of served jobs
    served = [i for i, job in enumerate(jobs) if "error" not in job]
    sample = random.Random(seed + 1).sample(served, min(SPOT_CHECKS, len(served)))
    spot_parts = []
    for index in sorted(sample):
        job = jobs[index]
        payloads = submit.results(job["id"])["payloads"]
        expected = _one_shot_payload(job["cell"])
        if len(payloads) != 1 or payloads[0] != expected:
            job["error"] = "served payload differs from the one-shot executor"
        spot_parts.append(json.dumps(expected, sort_keys=True).encode())
    submit.close()
    return {"jobs": jobs, "stats": stats["stats"], "daemon_origin": daemon_origin,
            "peak_rss_mb": rss, "spot_digest": digest(spot_parts),
            "spot_checked": len(sample), "idle_units": idle_units}


def session(seed: int, seconds: float, spans: Optional[Path] = None) -> dict:
    """Set the daemon up (median of several starts), drive it, stop it.

    The daemon is pinned to the first usable CPU and the client to the
    last. The daemon's CPU is calibrated after each start, and while it
    is idle between jobs (see :func:`drive`).
    """
    measured = max(MIN_JOBS, round(RATE * seconds))
    plan = job_plan(seed, WARMUP_JOBS, measured)
    cpu = usable_cpus()[0]
    speed = Calibration([cpu])
    workdir = scratch_dir("serve")
    raw_setups, setups = [], []
    try:
        for attempt in range(SETUP_REPEATS):
            last = attempt == SETUP_REPEATS - 1
            # a fresh cache and journal for every start
            daemon = Daemon(scratch_dir("serve"), cpu, spans if last else None)
            raw_setups.append(daemon.setup_s)
            setups.append(daemon.setup_s * speed.scale())
            if not last:
                daemon.stop()
        try:
            with pinned(usable_cpus()[-1]):
                outcome = drive(daemon, plan, seed, cpu)
        finally:
            daemon.stop()
        job_spans = daemon.job_spans()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not outcome["idle_units"]:
        raise RuntimeError("the daemon was never idle long enough to calibrate")
    # one factor for the whole window, from the mean of its calibrations
    # (bursts of steal count by how often they hit); per-job factors from
    # the few calibrations near each job would add their own noise to the tail
    outcome.update({"job_spans": job_spans, "measured_from": WARMUP_JOBS,
                    "setups": setups, "raw_setups": raw_setups,
                    "scale": REF_UNIT_S / statistics.mean(outcome["idle_units"])})
    return outcome


def _measured_done(outcome: dict) -> List[dict]:
    return [j for j in outcome["jobs"][outcome["measured_from"]:] if "error" not in j]


def service_seconds(outcome: dict) -> float:
    """The daemon's summed job-span seconds over the measured jobs served."""
    spans = outcome["job_spans"]
    return sum(spans[j["id"]][1] for j in _measured_done(outcome) if j["id"] in spans)


def e2e_metrics(outcome: dict) -> dict:
    """Latencies and service time at the reference speed; the latency
    limit applies to raw seconds, as a user would see them."""
    measured = outcome["jobs"][outcome["measured_from"]:]
    done = _measured_done(outcome)
    raw = [j["seen"] - j["due"] for j in done]
    latencies = [lat * outcome["scale"] for lat in raw]
    return {
        "setup_s": median(outcome["setups"]),
        "cells_per_s": len(done) / (service_seconds(outcome) * outcome["scale"]),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p95_s": percentile(latencies, 95),
        "goodput_frac": sum(lat <= LATENCY_LIMIT for lat in raw) / len(measured),
        "peak_rss_mb": outcome["peak_rss_mb"] or 0.0,
    }


def run_samples(outcome: dict) -> dict:
    """Raw seconds and host context kept in the run record."""
    measured = outcome["jobs"][outcome["measured_from"]:]
    done = _measured_done(outcome)
    raw = [j["seen"] - j["due"] for j in done]
    return {"raw_latency_p50_s": percentile(raw, 50),
            "raw_latency_p95_s": percentile(raw, 95),
            "raw_service_s": service_seconds(outcome),
            "served_jobs": len(done),
            "window_s": max(j["seen"] for j in done) - measured[0]["due"],
            "gen_late_p95_s": percentile([j["sent"] - j["due"] for j in measured], 95),
            "raw_setups_s": outcome["raw_setups"],
            "idle_units_s": outcome["idle_units"],
            "scale": outcome["scale"]}


def failures(outcome: dict) -> int:
    return sum("error" in job for job in outcome["jobs"])


def serve_layer_metrics(outcome: dict) -> dict:
    """Queueing and service from client timings, the journal and ``stats``."""
    measured = outcome["jobs"][outcome["measured_from"]:]
    spans, origin = outcome["job_spans"], outcome["daemon_origin"]
    waits, services = [], []
    for job in measured:
        if job.get("id") in spans:
            start, duration = spans[job["id"]]
            waits.append(max(0.0, origin + start - job["acked"]))
            services.append(duration)
    stats = outcome["stats"]
    return {
        "serve.submit_rtt_p50_s": percentile([j["acked"] - j["sent"] for j in measured], 50),
        "serve.queue_wait_p50_s": percentile(waits, 50),
        "serve.queue_wait_p95_s": percentile(waits, 95),
        "serve.service_p50_s": percentile(services, 50),
        "serve.rejected": float(stats["rejected"]),
        "serve.executed": float(stats["executed"]),
        "serve.evictions": float(stats["evictions"]),
        "serve.gen_late_p95_s": percentile([j["sent"] - j["due"] for j in measured], 95),
    }


def fingerprint(outcome: dict, seed: int) -> dict:
    """Simulated outputs of the session: a pure function of the seed."""
    stats = outcome["stats"]
    return {
        "seed": seed,
        "jobs": len(outcome["jobs"]),
        "cells": stats["cells"],
        "executed": stats["executed"],
        "cache_hits": stats["cache_hits"],
        "evictions": stats["evictions"],
        "dollars": round(float(stats["dollars"]), 6),
        "spot_checked": outcome["spot_checked"],
        "spot_digest": outcome["spot_digest"],
    }
