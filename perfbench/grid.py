"""The grid workloads: the cold Fig 6 + Fig 8 grid, and its warm replay.

Both run the paper's PageRank lineup (Fig 6) and SSSP lineup (Fig 8) on
{twitter, uk0705, wrn} at ``small`` size on 16 and 64 machines: 132
cells through :func:`repro.exec.execute_specs`. The seed permutes the
order the cells are planned (and so submitted) in; the set of cells and
every simulated output stay the same, so the fingerprint does not
depend on the seed.

Every pass is checked: SSSP answers equal ``reference_sssp`` exactly,
PageRank answers match ``reference_pagerank`` under each engine's
documented rule, replayed cells equal the cold cells bit for bit with
byte-identical journals, and every pass has the first pass's
fingerprint. A cell that fails a check is a failed operation.
"""

from __future__ import annotations

import random
import shutil
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    GRID_JOBS, SETUP_REPEATS, clamp_jobs, digest, median, now, peak_rss_mb,
    percentile, probe_setup, scratch_dir, wait_children,
)
from speed import Calibration, pinned, usable_cpus

DATASETS = ("twitter", "uk0705", "wrn")
CLUSTER_SIZES = (16, 64)
SIZE = "small"
WORKLOADS = ("pagerank", "sssp")

#: PageRank engines whose answer is the exact fixpoint (tolerance stop)
_PR_EXACT = ("BV", "HD", "HL", "S", "FG", "V")
#: the median relative error a near-fixpoint engine may show (the bound
#: the engine-answer tests use for Blogel-B)
_NEAR_FIXPOINT = 0.05


def cell_specs(seed: int) -> list:
    """One single-cell spec per grid cell, in a seeded order."""
    from repro.core.runner import ExperimentSpec
    from repro.engines import systems_for_workload

    specs = [
        ExperimentSpec(systems=(system,), workloads=(workload,),
                       datasets=(dataset,), cluster_sizes=(machines,),
                       dataset_size=SIZE)
        for workload in WORKLOADS
        for system in systems_for_workload(workload)
        for dataset in DATASETS
        for machines in CLUSTER_SIZES
    ]
    random.Random(seed).shuffle(specs)
    return specs


def cell_of(result) -> Tuple[str, str, str, int]:
    return (result.system, result.workload, result.dataset, result.cluster_size)


def journal_text(result) -> str:
    return result.observation.journal().dumps() if result.observation else ""


class AnswerChecker:
    """Reference answers per (rule, dataset), computed once per process."""

    def __init__(self) -> None:
        self._refs: Dict[tuple, np.ndarray] = {}

    def _reference(self, key: tuple) -> np.ndarray:
        if key not in self._refs:
            from repro.datasets.registry import load_dataset
            from repro.workloads import reference_pagerank, reference_sssp

            kind, dataset_name, drop_self, mode, value = key
            dataset = load_dataset(dataset_name, SIZE)
            graph = dataset.graph.without_self_edges() if drop_self else dataset.graph
            if kind == "sssp":
                self._refs[key] = reference_sssp(graph, dataset.sssp_source)
            elif mode == "tolerance":
                self._refs[key] = reference_pagerank(graph, tolerance=value)
            else:
                self._refs[key] = reference_pagerank(graph, iterations=value)
        return self._refs[key]

    def check(self, result) -> Optional[str]:
        """None when the cell's answer is right, else why it is wrong.

        Simulated failures (TO/OOM/MPI/SHFL) are results with no answer.
        """
        if result.failure is not None:
            return None
        if result.answer is None:
            return "completed cell without an answer"
        if result.workload == "sssp":
            expected = self._reference(("sssp", result.dataset, False, "", 0))
            return None if np.array_equal(result.answer, expected) else "sssp differs"
        if result.workload != "pagerank":
            return f"no answer rule for workload {result.workload!r}"
        from repro.datasets.registry import load_dataset
        from repro.engines import make_engine, workload_for

        system = result.system
        workload = workload_for(make_engine(system),
                                "pagerank", load_dataset(result.dataset, SIZE))
        tol, iters = float(workload.tolerance), int(workload.max_iterations)
        near = False
        if system in _PR_EXACT:
            key = ("pagerank", result.dataset, False, "tolerance", tol)
        elif system == "G":  # Giraph runs a fixed iteration count
            key = ("pagerank", result.dataset, False, "iterations", iters)
        elif system.startswith("GL-") and system.endswith("-I"):
            # GraphLab drops self-edges (§3.1.1), then iterates exactly
            key = ("pagerank", result.dataset, True, "iterations", iters)
        elif system.startswith("GL-") and system.endswith("-T"):
            # per-vertex tolerance stops early: near the self-edge-free fixpoint
            key, near = ("pagerank", result.dataset, True, "tolerance", tol), True
        elif system == "BB":
            # two-step block PageRank converges from another start (§3.1.2)
            key, near = ("pagerank", result.dataset, False, "tolerance", tol), True
        else:
            return f"no PageRank answer rule for {system}"
        expected = self._reference(key)
        if near:
            rel = np.abs(result.answer - expected) / np.maximum(expected, 1e-9)
            return None if float(np.median(rel)) < _NEAR_FIXPOINT else "pagerank far from fixpoint"
        return None if np.allclose(result.answer, expected) else "pagerank differs"


def fingerprint(results: list) -> dict:
    """Digest of canonical journals and answers, plus simulated totals.

    Cells are taken in sorted cell order, so the plan order (the seed)
    does not enter; two runs of the same code give the same fingerprint.
    """
    from repro.analysis.logs import result_to_record
    from repro.obs.cost import CostReport
    import json

    ordered = sorted(results, key=cell_of)
    parts: List[bytes] = []
    dollars = 0.0
    for result in ordered:
        parts.append(json.dumps(result_to_record(result), sort_keys=True).encode())
        parts.append(b"" if result.answer is None else np.ascontiguousarray(result.answer).tobytes())
        text = journal_text(result)
        parts.append(text.encode())
        event = result.observation.journal().cost() if result.observation else None
        if event is not None:
            dollars += CostReport.from_event(event).dollars
    return {
        "digest": digest(parts),
        "cells": len(ordered),
        "supersteps": int(sum(r.iterations for r in ordered)),
        "sim_failures": int(sum(r.failure is not None for r in ordered)),
        "network_bytes": float(sum(r.network_bytes for r in ordered)),
        "dollars": round(dollars, 6),
    }


def run_pass(specs: list, jobs: int, cache, tracer=None) -> Tuple[object, float]:
    """One timed grid execution; returns (GridExecution, host seconds).

    A ``tracer`` is reset and installed for exactly this pass. The pass
    returns once its pool workers have ended.
    """
    from repro.exec import execute_specs

    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = now()
        execution = execute_specs(specs, jobs=jobs, cache=cache)
        seconds = now() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        wait_children()
    return execution, seconds


def check_cold(results: list, specs, checker: AnswerChecker) -> List[str]:
    """Every cell present and answered right; one message per bad cell."""
    problems = []
    if len(results) != len(specs):
        problems.extend(["missing cell"] * (len(specs) - len(results)))
    for result in results:
        why = checker.check(result)
        if why is not None:
            problems.append(f"{cell_of(result)}: {why}")
    return problems


def compare_to(execution, baseline: Dict[tuple, Tuple[object, str]],
               journal_share: Tuple[int, int] = (0, 1)) -> List[str]:
    """Cells equal to the baseline's (``same_results``) with identical journals.

    ``journal_share=(k, n)`` compares the journal bytes of every n-th cell
    in plan order, starting at k (rendering a journal costs about as much
    as replaying its cell); results are compared for every cell.
    """
    from repro.core.runner import ResultGrid

    problems = []
    start, step = journal_share
    for index, result in enumerate(execution.results):
        cell = cell_of(result)
        base, base_journal = baseline[cell]
        mine, theirs = ResultGrid(), ResultGrid()
        mine.put(result)
        theirs.put(base)
        if not mine.same_results(theirs):
            problems.append(f"{cell}: result differs from baseline")
        elif index % step == start % step and journal_text(result) != base_journal:
            problems.append(f"{cell}: journal differs from baseline")
    return problems


def baseline_of(results: list) -> Dict[tuple, Tuple[object, str]]:
    return {cell_of(r): (r, journal_text(r)) for r in results}


def clear_dataset_memo() -> None:
    """Drop the per-process dataset and fingerprint memos (a fresh start)."""
    from repro.datasets import registry
    from repro.exec import cache

    registry.load_dataset.cache_clear()
    cache.dataset_fingerprint.cache_clear()


class GridRun:
    """State shared by one grid workload run: specs, checks, tallies."""

    def __init__(self, seed: int) -> None:
        from repro.datasets.registry import load_dataset

        # generated once here, so forked pool workers start with them
        for name in DATASETS:
            load_dataset(name, SIZE)
        self.specs = cell_specs(seed)
        self.cells = len(self.specs)
        self.checker = AnswerChecker()
        self.jobs = clamp_jobs(GRID_JOBS)
        self.attempted = 0
        self.problems: List[str] = []
        self.fingerprint: Optional[dict] = None

    def tally(self, results: list, problems: List[str], replay: bool = False) -> None:
        """Count a pass; a cold pass must reproduce the first fingerprint.

        A replay is compared cell by cell against the cold baseline
        instead, which implies the same fingerprint.
        """
        self.attempted += self.cells
        self.problems.extend(problems)
        if replay:
            return
        fp = fingerprint(results)
        if self.fingerprint is None:
            self.fingerprint = fp
        elif fp != self.fingerprint:
            self.problems.append("pass fingerprint differs from the first pass")

    def cold_pass(self, jobs: int, tracer=None) -> Tuple[object, float]:
        """A pass into a fresh, empty cache, checked against references.

        With a ``tracer`` the pass runs wrapped; checks run after the
        wrappers are gone so they never show up as layer time.
        """
        cache_dir = scratch_dir("cold")
        try:
            execution, seconds = run_pass(self.specs, jobs, cache_dir, tracer)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.tally(execution.results, check_cold(execution.results, self.specs, self.checker))
        return execution, seconds

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.problems))


def e2e_metrics(run: GridRun, walls: List[float], setups: List[float]) -> dict:
    """The end-to-end metrics a grid user sees, from speed-adjusted passes."""
    ok = run.attempted - run.failed
    return {
        "setup_s": median(setups),
        "cells_per_s": run.cells / median(walls),
        "latency_p50_s": percentile(walls, 50),
        "latency_p95_s": percentile(walls, 95),
        "goodput_frac": ok / run.attempted if run.attempted else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


#: fewest passes in a grid-cold run, so that its median pass rests on
#: three even while the host runs slow
MIN_COLD_PASSES = 3


def timed_probes(speed: Calibration) -> List[float]:
    """Set-up probes, each at the reference speed."""
    return [probe_setup(DATASETS, SIZE) * speed.scale() for _ in range(SETUP_REPEATS)]


def grid_cold(seed: int, seconds: float) -> dict:
    """Untraced cold grid: timed passes into empty caches.

    The pool's workers run on every CPU, so each pass is adjusted by the
    mean unit over all CPUs, calibrated before and after it.
    """
    run = GridRun(seed)
    speed = Calibration(usable_cpus())
    setups = timed_probes(speed)
    raw: List[float] = []
    walls: List[float] = []
    while len(raw) < MIN_COLD_PASSES or sum(raw) < seconds:
        _, wall = run.cold_pass(run.jobs["jobs"])
        raw.append(wall)
        walls.append(wall * speed.scale())
    return {"run": run, "walls": walls, "raw_walls": raw, "units": speed.units,
            "metrics": e2e_metrics(run, walls, setups)}


#: the warm grid's cache is filled in this many chunks, each adjusted by
#: the calibrations around it: a whole grid in one stretch would be
#: adjusted by the host's speed at two instants only
FILL_CHUNKS = 4


def fill_cache(run: GridRun, speed: Calibration) -> Tuple[list, float, object]:
    """Set-up for the warm grid: the cold grid into a cache kept for replay.

    Returns the cells' results, the fill's seconds at the reference
    speed, and the cache directory.
    """
    cache_dir = scratch_dir("warm")
    results: list = []
    seconds = 0.0
    for chunk in range(FILL_CHUNKS):
        execution, wall = run_pass(run.specs[chunk::FILL_CHUNKS], run.jobs["jobs"], cache_dir)
        seconds += wall * speed.scale()
        results.extend(execution.results)
    run.tally(results, check_cold(results, run.specs, run.checker))
    return results, seconds, cache_dir


#: a warm pass compares the journals of one cell in this many (rotating,
#: so consecutive passes cover every cell); the first pass compares all
JOURNAL_SHARE = 8


def warm_pass(run: GridRun, cache_dir, baseline, index: int,
              tracer=None) -> Tuple[object, float]:
    """A replay of every cell from the filled cache, checked against it."""
    execution, wall = run_pass(run.specs, run.jobs["jobs"], cache_dir, tracer)
    share = (0, 1) if index == 0 else (index, JOURNAL_SHARE)
    problems = compare_to(execution, baseline, share)
    misses = execution.report.cells - execution.report.cache_hits
    problems.extend(["warm cell was not a cache hit"] * misses)
    run.tally(execution.results, problems, replay=True)
    return execution, wall


def grid_warm(seed: int, seconds: float) -> dict:
    """Untraced warm grid: set-up fills the cache, passes replay it.

    Set-up is the median of the import-and-generate probes plus one cache
    fill (a whole cold grid, too long to repeat per run). Replays run
    inline on one pinned CPU and are adjusted by that CPU's unit.
    """
    run = GridRun(seed)
    speed = Calibration(usable_cpus())
    probes = timed_probes(speed)
    results, fill, cache_dir = fill_cache(run, speed)
    setup = median(probes) + fill
    baseline = baseline_of(results)
    cpu = usable_cpus()[-1]
    raw: List[float] = []
    walls: List[float] = []
    try:
        with pinned(cpu):
            replay_speed = Calibration([cpu])
            while not raw or sum(raw) < seconds:
                _, wall = warm_pass(run, cache_dir, baseline, len(raw))
                raw.append(wall)
                walls.append(wall * replay_speed.scale())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"run": run, "walls": walls, "raw_walls": raw, "fill_s": fill,
            "units": speed.units + replay_speed.units,
            "metrics": e2e_metrics(run, walls, [setup])}


def cell_seconds(execution) -> float:
    """Sum of per-cell host seconds the executor itself recorded."""
    return sum(float(span.attrs.get("host_seconds", 0.0))
               for span in execution.observation.tracer.spans
               if span.name == "cell")


def traced_extras(walls_untraced, walls_traced, busy: float, retries: int,
                  run: GridRun) -> dict:
    return {
        "cache.evictions": 0.0,  # grid caches are unbounded
        "exec.pool_busy_frac": busy,
        "exec.retries": float(retries),
        "trace.overhead_frac": median(walls_traced) / median(walls_untraced) - 1.0,
        "failed_frac": run.failed / run.attempted if run.attempted else 0.0,
    }


def grid_cold_traced(seed: int, seconds: float) -> dict:
    """Cold grid, inline: an untraced pass, a traced pass, a pool pass.

    The inline passes give layer times (wrappers see every call only in
    this process) and the tracing overhead; the pool pass at the e2e job
    count gives the pool's busy share: inline cell seconds over
    (jobs x pool wall).
    """
    from layers import LayerTracer, profile

    run = GridRun(seed)
    tracer = LayerTracer()
    untraced, traced, pooled, profiles = [], [], [], []
    busy, retries = [], 0
    while not traced or sum(untraced + traced + pooled) < seconds:
        clear_dataset_memo()
        inline, wall = run.cold_pass(1)
        untraced.append(wall)
        clear_dataset_memo()
        execution, wall = run.cold_pass(1, tracer)
        traced.append(wall)
        profiles.append(profile(tracer, wall, execution.report.cache_hits,
                                execution.report.executed))
        problems = compare_to(execution, baseline_of(inline.results))
        run.problems.extend(f"traced run changed {p}" for p in problems)
        pool, wall = run.cold_pass(run.jobs["jobs"])
        pooled.append(wall)
        busy.append(cell_seconds(inline) / (run.jobs["jobs"] * wall))
        retries += sum(e.report.retries for e in (inline, execution, pool))
    return {"run": run, "walls": traced, "tracer": tracer, "profiles": profiles,
            "extras": traced_extras(untraced, traced, median(busy), retries, run)}


def grid_warm_traced(seed: int, seconds: float) -> dict:
    """Warm grid: untraced and traced replays alternate over one cache."""
    from layers import LayerTracer, profile

    run = GridRun(seed)
    results, _, cache_dir = fill_cache(run, Calibration(usable_cpus()))
    baseline = baseline_of(results)
    tracer = LayerTracer()
    untraced, traced, profiles, busy, retries = [], [], [], [], 0
    try:
        while not traced or sum(untraced + traced) < seconds:
            plain, wall = warm_pass(run, cache_dir, baseline, 2 * len(traced))
            untraced.append(wall)
            busy.append(cell_seconds(plain) / (run.jobs["jobs"] * wall))
            execution, wall = warm_pass(run, cache_dir, baseline,
                                        2 * len(traced) + 1, tracer)
            traced.append(wall)
            profiles.append(profile(tracer, wall, execution.report.cache_hits,
                                    execution.report.executed))
            retries += plain.report.retries + execution.report.retries
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"run": run, "walls": traced, "tracer": tracer, "profiles": profiles,
            "extras": traced_extras(untraced, traced, median(busy), retries, run)}
