"""RPL009 — concurrency ban: scheduler doors only (``exec``, ``serve``).

The simulation models distributed execution with *simulated* clocks and
deterministic cost accounting; host-level concurrency anywhere inside
the model would let scheduling nondeterminism leak into results (span
orders, metric interleavings, iteration counts). Real parallelism
belongs to the layers *around* the model — the experiment executor in
``repro/exec/``, which fans out whole independent cells and proves
bit-equivalence with the sequential path, and the serving layer in
``repro/serve/``, which funnels every concurrent client through one
event loop into that same executor. Mirroring RPL001's
single-wall-clock-door pattern, every import of ``threading``,
``multiprocessing``, or ``concurrent.futures`` outside those packages
is a violation, so the repo's entire concurrency surface stays
auditable in two directories that never compute a simulated quantity.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..program import Program
from ..source import SourceModule
from .base import Rule, Violation

__all__ = ["ConcurrencyRule"]

#: module families that create host-level concurrency
_BANNED_ROOTS = ("threading", "multiprocessing", "concurrent")

#: the sanctioned concurrency packages (path fragment match, both
#: separators so Windows checkouts stay covered): the cell executor and
#: the serving layer that feeds it
_ALLOWED_FRAGMENTS = (
    "repro/exec/",
    "repro\\exec\\",
    "repro/serve/",
    "repro\\serve\\",
)


def _is_allowlisted(path: str) -> bool:
    return any(fragment in path for fragment in _ALLOWED_FRAGMENTS)


def _banned_root(module_name: Optional[str]) -> Optional[str]:
    if not module_name:
        return None
    root = module_name.split(".", 1)[0]
    return root if root in _BANNED_ROOTS else None


class ConcurrencyRule(Rule):
    """Ban thread/process machinery outside the executor package."""

    code = "RPL009"
    name = "concurrency-door"
    rationale = (
        "host-level concurrency is nondeterministic; all of it lives in "
        "repro/exec (the scheduler) and repro/serve (the daemon), never "
        "inside the simulation"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        for module in program.sources:
            if _is_allowlisted(module.path):
                continue
            for node in module.index.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        root = _banned_root(alias.name)
                        if root:
                            yield self._flag(module, node, alias.name)
                elif isinstance(node, ast.ImportFrom):
                    # absolute imports only: a relative ``from .concurrent``
                    # is a local module, not the stdlib family
                    if node.level == 0 and _banned_root(node.module):
                        yield self._flag(module, node, node.module or "")

    def _flag(self, module: SourceModule, node: ast.AST, name: str) -> Violation:
        return self.violation(
            module.path,
            node,
            f"concurrency import {name!r} outside repro/exec and "
            f"repro/serve — cells parallelize through the executor, "
            f"never inside the model",
        )
