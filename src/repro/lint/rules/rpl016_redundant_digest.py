"""RPL016 — redundant bulk digest recomputed inside a loop.

Hashing a dataset's edge array or a package's source files is O(bytes)
work whose answer never changes within a run: the inputs are immutable
for the lifetime of the process. Doing it once per loop iteration —
the grid planner computing a per-cell SHA-256 of the same dataset bytes
78 times — is statically visible waste, and on this codebase it is the
single largest contributor to cold-grid planning time.

The rule classifies *bulk digest* functions (a ``hashlib`` call fed by
``.tobytes()`` / ``.read_bytes()`` in the same body), then flags every
call site lexically inside a ``for``/``while`` loop whose conservative
call-graph closure reaches an **unmemoized** bulk digest function. A
``functools.lru_cache`` / ``functools.cache`` decorator on any function
along the path amortizes the digest to once per process and cuts the
propagation, so the sanctioned fix — memoize the fingerprint — makes
the finding disappear. Building a ``hashlib`` object directly from
loop-invariant bulk bytes inside a loop is flagged too; hashing the
loop variable itself is per-item work, not waste, and passes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..callgraph import CallSite, call_sites, resolve_targets
from ..hotpath import loop_bodies, loop_call_sites
from ..program import ClassInfo, FunctionInfo, Program
from ..source import NodeIndex, dotted_parts
from .base import Rule, Violation

__all__ = ["RedundantDigestRule"]

#: method calls that feed whole-object byte buffers into a digest
_BULK_SOURCES = frozenset({"tobytes", "read_bytes"})

#: decorators that amortize a pure function to once per process
_MEMO_DECORATORS = frozenset({"lru_cache", "cache", "cached_property"})


def _is_memoized(fn: FunctionInfo) -> bool:
    for deco in getattr(fn.node, "decorator_list", []):
        if isinstance(deco, ast.Call):
            deco = deco.func
        parts = dotted_parts(deco)
        if parts and parts[-1] in _MEMO_DECORATORS:
            return True
    return False


def _is_hashlib_call(site: CallSite, fn: FunctionInfo) -> bool:
    """True when the call resolves to ``hashlib.<anything>``."""
    if site.chain is None:
        return False
    dotted = ".".join(site.chain)
    resolved = fn.module.source.imports.resolve(dotted) or dotted
    return resolved == "hashlib" or resolved.startswith("hashlib.")


def _has_bulk_source(fn: FunctionInfo) -> bool:
    for sub in fn.index.walk(fn.node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _BULK_SOURCES
        ):
            return True
    return False


def _loop_bound_names(fn: FunctionInfo) -> Dict[int, frozenset]:
    """node id → names rebound by any loop enclosing that node.

    A ``for`` target and every name stored inside a loop body vary per
    iteration; bytes derived from them are *not* loop-invariant.
    """
    bound: Dict[int, set] = {}
    for loop, body in loop_bodies(fn):
        names = set()
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            names.update(
                n.id for n in fn.index.walk(loop.target)
                if isinstance(n, ast.Name)
            )
        for stmt in body:
            for sub in fn.index.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    names.add(sub.id)
        for stmt in body:
            for sub in fn.index.walk(stmt):
                bound.setdefault(id(sub), set()).update(names)
    return {key: frozenset(names) for key, names in bound.items()}


def _invariant_bulk_source(
    index: NodeIndex, call: ast.Call, bound: frozenset
) -> bool:
    """True when ``call`` hashes bulk bytes whose receiver is loop-invariant."""
    for arg in call.args:
        for sub in index.walk(arg):
            if not (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _BULK_SOURCES
            ):
                continue
            receiver = dotted_parts(sub.func)[:-1]
            if receiver and receiver[0] not in bound:
                return True
    return False


def _is_bulk_digest(fn: FunctionInfo) -> bool:
    """The body both calls hashlib and consumes whole-object bytes."""
    if not _has_bulk_source(fn):
        return False
    return any(_is_hashlib_call(site, fn) for site in call_sites(fn))


_Node = Tuple[FunctionInfo, Optional[ClassInfo]]


def _node_key(node: _Node) -> Tuple[str, str]:
    fn, binding = node
    return (fn.qualname, binding.qualname if binding else "")


class RedundantDigestRule(Rule):
    """Flag loop call sites that recompute an unmemoized bulk digest."""

    code = "RPL016"
    name = "redundant-bulk-digest"
    rationale = (
        "hashing immutable bytes inside a loop repeats O(bytes) work "
        "per iteration — memoize the digest (functools.lru_cache) or "
        "hoist it out of the loop"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        bulk = {
            fn.qualname
            for fn in program.functions.values()
            if _is_bulk_digest(fn) and not _is_memoized(fn)
        }
        edges: Dict[Tuple[str, str], List[_Node]] = {}

        def successors(node: _Node) -> List[_Node]:
            key = _node_key(node)
            if key not in edges:
                fn, binding = node
                targets: List[_Node] = []
                for site in call_sites(fn):
                    targets.extend(resolve_targets(program, site, fn, binding))
                edges[key] = targets
            return edges[key]

        def reaches_bulk(roots: List[_Node]) -> Optional[str]:
            """qualname of the first reachable unmemoized bulk digest."""
            seen = set()
            frontier = sorted(roots, key=_node_key)
            while frontier:
                nxt: List[_Node] = []
                for node in frontier:
                    key = _node_key(node)
                    if key in seen:
                        continue
                    seen.add(key)
                    fn = node[0]
                    if _is_memoized(fn):
                        continue  # amortized: the digest runs once
                    if fn.qualname in bulk:
                        return fn.qualname
                    nxt.extend(successors(node))
                frontier = sorted(nxt, key=_node_key)
            return None

        for qualname in sorted(program.functions):
            fn = program.functions[qualname]
            sites = loop_call_sites(fn)
            if not sites:
                continue
            binding = fn.owner
            bound = _loop_bound_names(fn)
            for site in sites:
                if _is_hashlib_call(site, fn):
                    if _invariant_bulk_source(
                        fn.index,
                        site.node,
                        bound.get(id(site.node), frozenset()),
                    ):
                        yield self.violation(
                            fn.module.path,
                            site.node,
                            "bulk digest built inside this loop — the "
                            "hashed bytes are loop-invariant; hoist or "
                            "memoize it",
                        )
                    continue
                if fn.qualname in bulk:
                    continue  # the digest's own streaming loop is the work
                targets = resolve_targets(program, site, fn, binding)
                if not targets:
                    continue
                culprit = reaches_bulk(list(targets))
                if culprit is not None:
                    yield self.violation(
                        fn.module.path,
                        site.node,
                        f"'{site.name}(...)' inside this loop recomputes "
                        f"the bulk digest '{culprit}' every iteration — "
                        f"memoize it (functools.lru_cache) so it runs "
                        f"once per process",
                    )
