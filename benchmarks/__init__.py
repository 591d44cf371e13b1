"""The paper-reproduction harness: one pytest module per table/figure.

Each module re-derives one reproduced result and prints its rows
(``benchmarks/output/``); none of them times the host. Host timing is
the repo benchmark's job: ``python3 perfbench/run.py --workload …``.
"""
