"""RPL015 — large result-determining objects pickled into pool tasks.

``ProcessPoolExecutor.submit`` pickles every argument into the task
queue and unpickles it in the worker. Shipping a whole dataset, graph,
or expanded spec per cell turns the fan-out into a serialization
benchmark: the paper's grids re-send megabytes of immutable edge
arrays that every worker could rebuild (or inherit via fork) from a
name. The executor's contract is therefore *pass by reference*: task
payloads carry dataset names and cache keys, workers rebuild through
the memoized registry.

The rule scans ``exec`` modules for pool dispatch calls
(``pool.submit(fn, ...)``, ``executor.map(fn, ...)``) and flags task
arguments that syntactically carry a large result-determining object:
a bare name like ``dataset``/``graph``/``spec``/``grid``, a
plural-collection access like ``self.datasets[...]``, or a direct
``load_dataset(...)`` / ``edge_array()`` call. ``functools.partial``
and ``lambda`` wrappers are looked through — closure capture pickles
just the same. Name-based on purpose (the linter never imports the
code under analysis), and scoped to ``exec`` where the pass-by-name
contract holds.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from ..hotpath import pool_dispatch
from ..program import Program
from ..source import NodeIndex, dotted_parts
from .base import Rule, Violation

__all__ = ["PoolPayloadRule"]

#: bare local names that conventionally hold one large object
_LARGE_NAMES = frozenset({"dataset", "graph", "spec", "grid", "edges"})

#: plural attributes/names that hold collections of large objects
_LARGE_COLLECTIONS = frozenset({"datasets", "graphs", "specs", "grids"})

#: calls that materialize a large object right in the argument list
_LARGE_CALLS = frozenset({"load_dataset", "edge_array", "without_self_edges"})


def _large_evidence(index: NodeIndex, node: ast.AST) -> Optional[str]:
    """Why this argument expression ships a large object, or None."""
    for sub in index.walk(node):
        if isinstance(sub, ast.Call):
            parts = dotted_parts(sub.func)
            if parts and parts[-1] in _LARGE_CALLS:
                return f"{parts[-1]}(...) materializes the object inline"
        if isinstance(sub, ast.Attribute) and sub.attr in _LARGE_COLLECTIONS:
            return f"'.{sub.attr}' indexes a collection of large objects"
        if isinstance(sub, ast.Name):
            if sub.id in _LARGE_NAMES:
                return f"'{sub.id}' names a large object"
            if sub.id in _LARGE_COLLECTIONS:
                return f"'{sub.id}' indexes a collection of large objects"
    return None


def _task_arguments(call: ast.Call, method: str) -> List[ast.AST]:
    """The expressions pickled per task (callable position excluded)."""
    args: List[ast.AST] = []
    positional = list(call.args)
    if positional:
        head = positional[0]
        # look through partial(fn, ...) and lambda wrappers: captured
        # values pickle exactly like explicit arguments
        if isinstance(head, ast.Call):
            parts = dotted_parts(head.func)
            if parts and parts[-1] == "partial":
                args.extend(head.args[1:])
                args.extend(kw.value for kw in head.keywords)
        elif isinstance(head, ast.Lambda):
            args.append(head.body)
        positional = positional[1:]
    args.extend(positional)
    args.extend(kw.value for kw in call.keywords)
    return args


class PoolPayloadRule(Rule):
    """Flag pool dispatches in ``exec`` that pickle large objects."""

    code = "RPL015"
    name = "pool-payload-by-value"
    rationale = (
        "pool arguments are pickled per task; ship dataset/graph/spec "
        "objects by name or cache key and rebuild in the worker"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        for name in sorted(program.modules):
            module = program.modules[name]
            if "exec" not in module.name_parts:
                continue
            for node in module.index.walk(module.source.tree):
                if not isinstance(node, ast.Call):
                    continue
                method = pool_dispatch(node)
                if method is None:
                    continue
                for arg in _task_arguments(node, method):
                    evidence = _large_evidence(module.index, arg)
                    if evidence is not None:
                        yield self.violation(
                            module.path,
                            arg,
                            f"pool.{method} pickles this argument into "
                            f"every task — {evidence}; pass it by "
                            f"name/cache key and rebuild in the worker",
                        )
