"""RPL005 — exception discipline: only SimulatedFailure signals failure.

The engines turn failures into result-grid cells (OOM/TO/MPI/SHFL) by
letting :class:`SimulatedFailure` propagate out of the phase methods to
``Engine.run``'s single handler. A bare ``except:`` anywhere — or a
broad ``except Exception`` inside a phase method that swallows without
re-raising — can eat a :class:`SimulatedFailure` (or a real bug) and
turn a failing cell into a silently wrong number.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..program import Program
from ..source import SourceModule, dotted_parts
from .base import Rule, Violation, reraises

__all__ = ["ExceptionDisciplineRule"]

#: methods on the engine/workload execution path
_PHASE_METHODS = frozenset({
    "run", "_load", "_execute", "_save", "_overhead",
    "superstep", "run_superstep_loop", "charge_superstep",
})

_BROAD = frozenset({"Exception", "BaseException"})


def _is_broad(type_node: Optional[ast.AST]) -> bool:
    if type_node is None:
        return False
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    for node in nodes:
        parts = dotted_parts(node)
        if parts and parts[-1] in _BROAD:
            return True
    return False


class ExceptionDisciplineRule(Rule):
    """Ban bare excepts; ban swallowing broad excepts in phase methods."""

    code = "RPL005"
    name = "exception-discipline"
    rationale = (
        "only SimulatedFailure may signal run failure; swallowed broad "
        "excepts turn failure cells into silently wrong numbers"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        for module in program.sources:
            yield from self._walk(module, module.tree, enclosing=None)

    def _walk(
        self, module: SourceModule, node: ast.AST, enclosing: Optional[str]
    ) -> Iterator[Violation]:
        for child in module.index.children(node):
            scope = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = child.name
            if isinstance(child, ast.ExceptHandler):
                if child.type is None:
                    yield self.violation(
                        module.path,
                        child,
                        "bare 'except:' catches SimulatedFailure and "
                        "KeyboardInterrupt alike — name the exception types",
                    )
                elif (
                    enclosing in _PHASE_METHODS
                    and _is_broad(child.type)
                    and not reraises(module.index, child)
                ):
                    yield self.violation(
                        module.path,
                        child,
                        f"broad except in phase method {enclosing}() swallows "
                        f"without re-raising — only SimulatedFailure may "
                        f"signal run failure",
                    )
            yield from self._walk(module, child, scope)
