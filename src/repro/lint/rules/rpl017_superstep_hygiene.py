"""RPL017 — hot-loop hygiene inside the per-superstep cone.

The superstep loop is the simulator's hot path: every engine runs it
once per observed superstep, for every cell of every grid. Python makes
three kinds of silent per-iteration overhead easy to write and easy to
hoist:

* ``s += "..."`` string building — quadratic, since each ``+=`` copies
  the whole accumulated string;
* rebuilding a **constant** dict/list/set literal each iteration — the
  value never changes, so the allocation is pure churn;
* long attribute-chain lookups (``self.cluster.network.latency``) —
  each hop is a dict lookup repeated every iteration for a value that
  is loop-invariant;
* ``getattr(obj, "constant", ...)`` on a loop-invariant receiver — a
  dynamic lookup with a fixed answer, re-resolved per iteration.

The cone is rooted at every concrete engine's ``run_superstep_loop`` /
``charge_superstep`` resolution plus every workload ``superstep``
kernel, closed over the conservative call graph (chaos/recovery is
excluded — it is priced by its own contracts, RPL010/RPL014). Within
the cone, only code lexically inside a ``for``/``while`` loop is held
to the hygiene bar.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..hotpath import nodes_in_loops
from ..program import FunctionInfo, Program
from ..reachability import Node, chaos_boundary, reachable
from ..source import NodeIndex, dotted_parts
from .base import Rule, Violation, concrete_engines

__all__ = ["SuperstepHygieneRule"]

#: methods whose resolution seeds the per-superstep cone
_SUPERSTEP_ROOTS = ("run_superstep_loop", "charge_superstep")

#: attribute hops after which a loop-invariant chain should be hoisted
_CHAIN_HOPS = 3


def _superstep_cone(program: Program) -> List[Node]:
    roots: List[Node] = []
    seen: Set[Tuple[str, str]] = set()
    for engine in concrete_engines(program):
        for name in _SUPERSTEP_ROOTS:
            fn = program.resolve_method(engine, name)
            if fn is None:
                continue
            key = (fn.qualname, engine.qualname)
            if key not in seen:
                seen.add(key)
                roots.append((fn, engine))
    for qualname in sorted(program.functions):
        fn = program.functions[qualname]
        if fn.name == "superstep" and not fn.is_abstract:
            key = (fn.qualname, fn.owner.qualname if fn.owner else "")
            if key not in seen:
                seen.add(key)
                roots.append((fn, fn.owner))
    return reachable(program, roots, skip=chaos_boundary)


def _constant_container(node: ast.AST) -> bool:
    """A non-empty dict/list/set literal whose elements are all constants."""
    if isinstance(node, ast.Dict):
        return bool(node.keys) and all(
            isinstance(k, ast.Constant) for k in node.keys if k is not None
        ) and all(isinstance(v, ast.Constant) for v in node.values)
    if isinstance(node, (ast.List, ast.Set)):
        return bool(node.elts) and all(
            isinstance(e, ast.Constant) for e in node.elts
        )
    return False


def _loop_variables(index: NodeIndex, loop: ast.AST) -> Set[str]:
    names: Set[str] = set()
    target = getattr(loop, "target", None)
    if target is not None:
        for sub in index.walk(target):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
    return names


class SuperstepHygieneRule(Rule):
    """Flag avoidable per-iteration work inside the superstep cone."""

    code = "RPL017"
    name = "superstep-hot-loop-hygiene"
    rationale = (
        "the superstep loop runs per cell per iteration; hoist constant "
        "allocations, deep attribute chains, and string building out of it"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        cone = _superstep_cone(program)
        checked: Set[str] = set()
        for fn, _binding in cone:
            if fn.qualname in checked:
                continue
            checked.add(fn.qualname)
            yield from self._check_function(fn)

    def _check_function(self, fn: FunctionInfo) -> Iterator[Violation]:
        # A node nested in several loops appears once per enclosing
        # loop; fold those into one record carrying the union of every
        # enclosing loop's variables (a chain rooted at *any* of them
        # varies per iteration and is not hoistable).
        loop_vars: dict = {}
        ordered: List[ast.AST] = []
        for loop, node in nodes_in_loops(fn):
            if id(node) not in loop_vars:
                loop_vars[id(node)] = set()
                ordered.append(node)
            loop_vars[id(node)] |= _loop_variables(fn.index, loop)

        flagged: Set[int] = set()
        for node in ordered:
            if id(node) in flagged:
                continue
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                if isinstance(node.value, ast.JoinedStr) or (
                    isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    flagged.add(id(node))
                    yield self.violation(
                        fn.module.path,
                        node,
                        "string += inside the superstep hot loop copies "
                        "the whole accumulator each iteration — collect "
                        "parts in a list and ''.join once",
                    )
                    continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                receiver = dotted_parts(node.args[0])
                if receiver is not None and receiver[0] not in loop_vars[
                    id(node)
                ]:
                    flagged.add(id(node))
                    yield self.violation(
                        fn.module.path,
                        node,
                        f"getattr(..., {node.args[1].value!r}) re-resolved "
                        f"every iteration of the superstep hot loop for a "
                        f"loop-invariant receiver — bind it to a local "
                        f"before the loop",
                    )
                    continue
            if _constant_container(node):
                flagged.add(id(node))
                yield self.violation(
                    fn.module.path,
                    node,
                    "constant container literal rebuilt every iteration "
                    "of the superstep hot loop — hoist it to module or "
                    "function scope",
                )
                continue
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                parts = dotted_parts(node)
                if parts is None or len(parts) <= _CHAIN_HOPS:
                    continue
                if parts[0] in loop_vars[id(node)]:
                    continue  # varies per iteration: nothing to hoist
                # flag the outermost chain only (its sub-chains are
                # attribute nodes too and would double-report)
                for sub in fn.index.walk(node):
                    if sub is not node:
                        flagged.add(id(sub))
                flagged.add(id(node))
                yield self.violation(
                    fn.module.path,
                    node,
                    f"attribute chain '{'.'.join(parts)}' re-resolved "
                    f"every iteration of the superstep hot loop — bind "
                    f"it to a local before the loop",
                )
