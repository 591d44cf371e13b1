"""RPL008 — nondeterministic set iteration in accumulation loops.

Python set iteration order depends on insertion history and hash
randomization. Iterating a set while accumulating floats or emitting
messages makes the result order-dependent: float addition is not
associative, and message order feeds the engines' cost models. Sort the
set (``sorted(s)``) or keep the collection in a list/array instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from ..program import Program
from ..source import NodeIndex, dotted_parts
from .base import Rule, Violation

__all__ = ["SetIterationRule"]

#: set-producing method calls (``a.union(b)`` et al. return new sets)
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})

#: loop-body calls that emit or accumulate in arrival order
_ORDER_SENSITIVE_CALLS = frozenset({
    "send", "emit", "send_message", "append", "push", "extend", "add",
})


def _set_expression(node: ast.AST) -> Optional[str]:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(node, ast.Call):
        parts = dotted_parts(node.func)
        if parts and parts[-1] in ("set", "frozenset"):
            return f"{parts[-1]}(...)"
        if parts and parts[-1] in _SET_METHODS:
            return f".{parts[-1]}(...)"
    return None


def _order_sensitive(index: NodeIndex, body: List[ast.stmt]) -> Optional[str]:
    for stmt in body:
        for node in index.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return "accumulates with an augmented assignment"
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _ORDER_SENSITIVE_CALLS:
                    return f"calls .{node.func.attr}()"
    return None


class SetIterationRule(Rule):
    """Flag for-loops over sets whose bodies are order-sensitive."""

    code = "RPL008"
    name = "nondeterministic-set-iteration"
    rationale = (
        "set order is hash-dependent; float accumulation and message "
        "emission over a set vary run to run — iterate sorted(...)"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        for module in program.sources:
            for node in module.index.walk(module.tree):
                if not isinstance(node, (ast.For, ast.AsyncFor)):
                    continue
                described = _set_expression(node.iter)
                if not described:
                    continue
                reason = _order_sensitive(module.index, node.body)
                if reason:
                    yield self.violation(
                        module.path,
                        node,
                        f"loop over {described} {reason} — set order is "
                        f"nondeterministic; iterate sorted(...) or use a "
                        f"list/array",
                    )
