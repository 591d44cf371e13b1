"""The repo's benchmark: cold grid, warm replay and open-loop serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers in place;
``--trace 1`` is a separate run that wraps each layer's entry points
(see ``layers.py``) and reports per-layer metrics plus the tracing
overhead. Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; every metric
is printed by name with its unit on the lines before it. The full run
record (fingerprint, host context, samples) goes to
``.perfbench/records/``.

Every run checks the program's answers; a wrong answer is a failed
operation, never a fast one. The workloads and why each was chosen, and
the metrics with their units and bounds, are defined in
``BENCHMARK.json``; which layers each workload runs through is in
``LAYERS`` below; what each metric means on each workload is in
``README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from common import (
    ROOT, LayoutError, WORK, host_cpus, load_average, median,
    use_checkout_source, wait_children, write_record,
)

#: workloads, metrics, units and bounds are defined once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: the layers each workload runs through, and those it leaves out
LAYERS = {
    "grid-cold": {
        "exercises": ["datasets", "exec", "engines", "partitioning", "cluster",
                      "workloads", "obs", "serialize", "cache (writes)"],
        "bypasses": ["cache reads", "serve"],
    },
    "grid-warm": {
        "exercises": ["exec", "cache (reads)", "serialize (decode)", "obs"],
        "bypasses": ["engines", "partitioning", "cluster", "workloads", "serve"],
    },
    "serve-zipf": {
        "exercises": ["serve", "cache (read/write/evict)", "exec", "engines",
                      "serialize", "obs"],
        "bypasses": ["process pool"],
    },
}


def _grid(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import grid
    from layers import layer_metrics

    if not trace:
        fn = grid.grid_cold if workload == "grid-cold" else grid.grid_warm
        out = fn(seed, seconds)
        metrics = out["metrics"]
    else:
        fn = grid.grid_cold_traced if workload == "grid-cold" else grid.grid_warm_traced
        out = fn(seed, seconds)
        metrics = layer_metrics(out["profiles"])
        metrics.update(out["extras"])
        # the grids never reach the daemon
        metrics.update({name: 0.0 for name in PER_LAYER if name.startswith("serve.")})
        out["tracer"].write_spans(WORK / "spans" / f"{workload}-seed{seed}.jsonl")
    run = out["run"]
    return {
        "metrics": metrics, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "fingerprint": run.fingerprint,
        "samples": {"pass_walls_s": out["walls"], "passes": len(out["walls"]),
                    "raw_pass_walls_s": out.get("raw_walls"),
                    "speed_units_s": out.get("units"), "cells_per_pass": run.cells},
        "jobs": run.jobs,
    }


def _serve(seed: int, seconds: float, trace: bool) -> dict:
    import serve
    from layers import layer_metrics

    if not trace:
        out = serve.session(seed, seconds)
        metrics = serve.e2e_metrics(out)
        outcomes = [out]
    else:
        plain = serve.session(seed, seconds / 2)
        profile_path = WORK / "spans" / f"serve-zipf-seed{seed}.json"
        profile_path.parent.mkdir(parents=True, exist_ok=True)
        out = serve.session(seed, seconds / 2, spans=profile_path)
        outcomes = [plain, out]
        busy = sum(d for _, d in out["job_spans"].values())
        daemon_profile = json.loads(profile_path.read_text())
        daemon_profile["wall"] = busy  # attribute the scheduler's busy time
        daemon_profile["counts"].update({
            "cache.hits": out["stats"]["cache_hits"],
            "cache.misses": out["stats"]["executed"],
        })
        metrics = layer_metrics([daemon_profile])
        metrics.update(serve.serve_layer_metrics(out))
        attempted = sum(len(o["jobs"]) for o in outcomes)
        metrics.update({
            "cache.evictions": float(out["stats"]["evictions"]),
            "exec.pool_busy_frac": 0.0,  # --jobs 1: cells run inline
            "exec.retries": 0.0,
            # the halves replay one plan, one after the other: compare
            # their service time at the reference speed
            "trace.overhead_frac": (serve.service_seconds(out) * out["scale"])
                                   / (serve.service_seconds(plain) * plain["scale"]) - 1.0,
            "failed_frac": sum(serve.failures(o) for o in outcomes) / attempted,
        })
    problems = [f"{job['cell']}: {job['error']}" for o in outcomes
                for job in o["jobs"] if "error" in job]
    measured = len(out["jobs"]) - out["measured_from"]
    return {
        "metrics": metrics,
        "attempted": sum(len(o["jobs"]) for o in outcomes),
        "failed": sum(serve.failures(o) for o in outcomes),
        "problems": problems,
        "fingerprint": serve.fingerprint(out, seed),
        "samples": dict(serve.run_samples(out), measured_jobs=measured,
                        warmup_jobs=out["measured_from"], setups_s=out["setups"],
                        rate_per_s=serve.RATE),
        "jobs": {"daemon_jobs": 1, "host_cpus": host_cpus()},
    }


def _units(trace: bool) -> Dict[str, str]:
    return PER_LAYER if trace else END_TO_END


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the record whose summary is printed."""
    load_before = load_average()
    if workload == "serve-zipf":
        out = _serve(seed, seconds, trace)
    else:
        out = _grid(workload, seed, seconds, trace)
    wait_children()  # every pool worker has ended before the run reports
    units = _units(trace)
    missing = set(units) - set(out["metrics"])
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    out["metrics"] = {name: out["metrics"][name] for name in units}
    out.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "about": dict(LAYERS[workload], why=WHY[workload]),
        "host": {"host_cpus": host_cpus(), "loadavg_before": load_before,
                 "loadavg_after": load_average()},
    })
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_source()
    except LayoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_record(args.workload, args.seed, bool(args.trace), record)
    units = _units(bool(args.trace))
    for name, value in record["metrics"].items():
        print(f"{args.workload}  {name:<26s} {value:>14.6g} {units[name]}")
    print(f"host: {record['host']}  jobs: {record['jobs']}")
    print("samples: " + ", ".join(
        f"{k}=n{len(v)}/med {median(v):.6g}" if isinstance(v, list) and v else f"{k}={v}"
        for k, v in record["samples"].items()))
    print(f"fingerprint: {json.dumps(record['fingerprint'], sort_keys=True)}")
    for problem in record["problems"][:10]:
        print(f"FAILED CHECK: {problem}")
    print(f"record: {path}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
