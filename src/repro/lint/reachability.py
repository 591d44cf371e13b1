"""Reachability over the conservative call graph.

The BFS walks (function, self-binding) pairs: the same method body can
resolve ``self.charge_superstep`` to different targets depending on
which concrete engine the traversal started from, so the binding is
part of the node identity. A boundary predicate stops the walk at
sanctioned edges — the chaos/recovery machinery is priced by its own
contracts (RPL010), so the model-conformance cone of an engine must not
descend into it.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set, Tuple

from .callgraph import call_sites, resolve_targets
from .program import ClassInfo, FunctionInfo, Program

__all__ = [
    "Node",
    "reachable",
    "chaos_boundary",
    "engine_cone",
]

Node = Tuple[FunctionInfo, Optional[ClassInfo]]

#: methods that hand control to the chaos/recovery machinery
_CHAOS_METHODS = frozenset({"_chaos_round", "_recover", "_rescale"})


def chaos_boundary(fn: FunctionInfo) -> bool:
    """True for functions the model-conformance walk must not enter."""
    if fn.name in _CHAOS_METHODS:
        return True
    return "chaos" in fn.module.name_parts


def reachable(
    program: Program,
    roots: Iterable[Node],
    skip: Optional[Callable[[FunctionInfo], bool]] = None,
) -> List[Node]:
    """BFS closure of ``roots``; deterministic order (sorted frontier)."""

    def key(node: Node) -> Tuple[str, str]:
        fn, binding = node
        return (fn.qualname, binding.qualname if binding else "")

    seen: Set[Tuple[str, str]] = set()
    order: List[Node] = []
    frontier = sorted(roots, key=key)
    for node in frontier:
        seen.add(key(node))
    while frontier:
        next_frontier: List[Node] = []
        for fn, binding in frontier:
            order.append((fn, binding))
            for site in call_sites(fn):
                for target, tbinding in resolve_targets(
                    program, site, fn, binding
                ):
                    if skip is not None and skip(target):
                        continue
                    node = (target, tbinding)
                    k = key(node)
                    if k not in seen:
                        seen.add(k)
                        next_frontier.append(node)
        frontier = sorted(next_frontier, key=key)
    return order


def engine_cone(
    program: Program,
    engine: ClassInfo,
    skip_chaos: bool = True,
) -> List[Node]:
    """Everything reachable from ``engine.run(...)`` for this engine."""

    def build() -> List[Node]:
        run = program.resolve_method(engine, "run")
        if run is None:
            return []
        skip = chaos_boundary if skip_chaos else None
        return reachable(program, [(run, engine)], skip=skip)

    return program.memo(("engine_cone", engine.qualname, skip_chaos), build)
