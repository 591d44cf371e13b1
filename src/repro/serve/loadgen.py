"""The serving cell catalog: the cells a skewed serving load draws from.

Real benchmark-as-a-service traffic is skewed: everyone re-runs the
famous configurations and a long tail probes the rest. The catalog is
the fixed, ordered set of cells such a load ranks by popularity; the
repo benchmark's serve workload (``perfbench/serve.py``, run as
``python3 perfbench/run.py --workload serve-zipf``) draws its Zipf
traffic from it.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["cell_catalog"]

#: engines served: the intersection of the PageRank and grid lineups,
#: so every catalog cell is valid for both workloads
BENCH_SYSTEMS = ("BB", "BV", "G", "S", "FG")

#: the workload mix: the paper's iterative staple plus the k-hop
#: traversal regime (§3.3) added by this repo's extension grid
BENCH_WORKLOADS = ("pagerank", "khop")

BENCH_DATASETS = ("twitter", "wrn")
BENCH_CLUSTER_SIZES = (16, 32)


# perfbench/serve.py imports this from repro.serve.loadgen: keep the path
def cell_catalog() -> List[Tuple[str, str, str, int]]:
    """Every (system, workload, dataset, cluster_size), in popularity order."""
    return [
        (system, workload, dataset, size)
        for system in BENCH_SYSTEMS
        for workload in BENCH_WORKLOADS
        for dataset in BENCH_DATASETS
        for size in BENCH_CLUSTER_SIZES
    ]
