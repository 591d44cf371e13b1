"""RPL007 — cost-accounting bypass.

Simulated time and resource usage are only meaningful if every charge
goes through the accounting APIs: ``cluster.advance`` (which enforces
the 24-hour budget), ``parallel_compute``/``shuffle``/``hdfs_*`` (which
record tracker series), and the tracker's ``record_*`` methods. A
direct assignment like ``cluster.now = 0`` or
``cluster.tracker.network_bytes_sent += n`` skips the timeout check and
the figures' data series — the run "finishes" with numbers nothing
accounted for.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..program import Program
from ..source import target_chain
from .base import Rule, Violation

__all__ = ["CostAccountingRule"]

#: attribute owners whose internals only their own methods may touch
_GUARDED_OWNERS = frozenset({"tracker", "clock"})


class CostAccountingRule(Rule):
    """Forbid writing the clock or tracker counters directly."""

    code = "RPL007"
    name = "cost-accounting-bypass"
    rationale = (
        "time and resource charges must go through advance/record_* so "
        "the timeout budget and figure series stay correct"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        for module in program.sources:
            for node in module.index.walk(module.tree):
                if isinstance(node, ast.Assign):
                    targets: List[ast.AST] = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    chain = target_chain(target)
                    if not chain or len(chain) < 2:
                        continue
                    dotted = ".".join(chain)
                    if chain[-1] == "now":
                        yield self.violation(
                            module.path,
                            target,
                            f"direct write to {dotted} bypasses advance() and "
                            f"the 24-hour budget — charge time through the "
                            f"cluster APIs",
                        )
                    elif _GUARDED_OWNERS & set(chain[:-1]):
                        yield self.violation(
                            module.path,
                            target,
                            f"direct write to {dotted} bypasses the accounting "
                            f"APIs — use advance()/record_*() so the tracker "
                            f"series stay consistent",
                        )
