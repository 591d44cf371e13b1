"""Shared loop/pool shape helpers for the performance rules.

RPL015–RPL019 all reason about the same two lexical shapes: "is this
expression inside a ``for``/``while`` loop of its function?" and "is
this call a process-pool dispatch?". Both live here so the rules agree
on the definitions and the fixtures exercise one implementation.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from .callgraph import CallSite, _classify
from .program import FunctionInfo
from .source import dotted_parts

__all__ = [
    "loop_bodies",
    "loop_call_sites",
    "nodes_in_loops",
    "pool_dispatch",
]

#: pool/executor methods that ship work (and its arguments) to workers
_DISPATCH_METHODS = frozenset({
    "submit", "map", "starmap", "apply", "apply_async", "imap",
    "imap_unordered",
})

#: receiver-name fragments that mark a pool-like object
_POOL_RECEIVERS = ("pool", "executor")


def loop_bodies(fn: FunctionInfo) -> Iterator[Tuple[ast.AST, List[ast.stmt]]]:
    """Every ``for``/``while`` loop in ``fn`` with its body statements.

    Nested function definitions are *not* entered: a closure's loops run
    on the closure's schedule, not this function's.
    """
    stack: List[ast.AST] = list(getattr(fn.node, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield node, node.body
        stack.extend(fn.index.children(node))


def nodes_in_loops(fn: FunctionInfo) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """(loop, node) pairs for every AST node inside a loop body of ``fn``."""
    for loop, body in loop_bodies(fn):
        for stmt in body:
            for node in fn.index.walk(stmt):
                yield loop, node


def loop_call_sites(fn: FunctionInfo) -> List[CallSite]:
    """Call sites lexically inside a loop body of ``fn``, in source order."""
    sites = []
    seen = set()
    for _, node in nodes_in_loops(fn):
        if isinstance(node, ast.Call) and id(node) not in seen:
            seen.add(id(node))
            site = _classify(node)
            if site is not None:
                sites.append(site)
    sites.sort(key=lambda s: (s.node.lineno, s.node.col_offset))
    return sites


def pool_dispatch(call: ast.Call) -> Optional[str]:
    """The dispatch method name when ``call`` ships work to a pool.

    Matches ``<recv>.submit(...)`` / ``.map(...)`` / ``.apply_async(...)``
    etc. where some segment of the receiver chain names a pool or
    executor (``pool.submit``, ``self.executor.map``). Name-based on
    purpose: the linter never imports the code under analysis.
    """
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _DISPATCH_METHODS:
        return None
    parts = dotted_parts(func)
    receiver = parts[:-1] if parts else []
    if not receiver:
        return None
    for segment in receiver:
        lowered = segment.lower()
        if any(marker in lowered for marker in _POOL_RECEIVERS):
            return func.attr
    return None
