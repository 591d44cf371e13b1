"""RPL003 — superstep purity: compute phases must not leak state.

Every engine replays the *same* workload supersteps so that answers are
bit-identical across systems; that only holds if a superstep's effects
are confined to its ``WorkloadState``. Writing module globals or
mutating the shared ``Graph`` from ``Workload.superstep`` or an
engine's ``_execute`` phase would couple runs to execution order —
exactly the implementation drift the benchmark is designed to exclude.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..program import Program
from ..source import SourceModule, target_chain
from .base import Rule, Violation, iter_methods

__all__ = ["SuperstepPurityRule"]

#: method names whose bodies are held to the purity contract
_PURE_METHODS = ("superstep", "_execute")

#: container methods that mutate their receiver in place
_MUTATORS = frozenset({
    "append", "add", "update", "extend", "insert", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
})


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


class SuperstepPurityRule(Rule):
    """Forbid global writes and graph mutation in compute phases."""

    code = "RPL003"
    name = "superstep-purity"
    rationale = (
        "supersteps must be pure over the Graph so every engine replays "
        "identical answers; state belongs in WorkloadState"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        for module in program.sources:
            module_names = _module_level_names(module.tree)
            for cls in module.index.walk(module.tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for method in iter_methods(cls, _PURE_METHODS):
                    yield from self._check_method(module, method, module_names)

    def _check_method(
        self,
        module: SourceModule,
        method: ast.FunctionDef,
        module_names: Set[str],
    ) -> Iterator[Violation]:
        params = {a.arg for a in method.args.args}
        graph_params = {"graph"} & params
        has_dataset = "dataset" in params

        # chains here always come from Attribute/Subscript nodes, so even a
        # single-element chain is a write *into* the named object, not a
        # local rebinding of the name
        def chain_is_graph(chain: List[str]) -> bool:
            if chain[0] in graph_params:
                return True
            return has_dataset and chain[:2] == ["dataset", "graph"]

        for node in module.index.walk(method):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield self.violation(
                    module.path,
                    node,
                    f"{kind} statement in {method.name}() — superstep state "
                    f"belongs in WorkloadState, not module globals",
                )
                continue
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATORS:
                    chain = target_chain(node.func.value)
                    if chain and chain_is_graph(chain):
                        yield self.violation(
                            module.path,
                            node,
                            f"{method.name}() mutates its graph argument via "
                            f".{node.func.attr}() — the Graph is shared and "
                            f"read-only during compute",
                        )
                    elif chain and chain[0] in module_names:
                        yield self.violation(
                            module.path,
                            node,
                            f"{method.name}() mutates module-level "
                            f"{chain[0]!r} via .{node.func.attr}() — "
                            f"supersteps must not write global state",
                        )
                continue
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                chain = target_chain(target)
                if not chain:
                    continue
                if chain_is_graph(chain):
                    yield self.violation(
                        module.path,
                        target,
                        f"{method.name}() writes to "
                        f"{'.'.join(chain)} — the Graph is shared and "
                        f"read-only during compute",
                    )
                elif chain[0] in module_names:
                    yield self.violation(
                        module.path,
                        target,
                        f"{method.name}() writes through module-level "
                        f"{chain[0]!r} — supersteps must not write global "
                        f"state",
                    )
