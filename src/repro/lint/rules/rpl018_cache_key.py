"""RPL018 — cache-key soundness: every result input must reach the key.

The content-addressed result cache replays a cell instead of running it
whenever the key matches. That is only sound if *everything that can
change a RunResult* is folded into the key — the inverse of RPL012's
determinism taint: RPL012 keeps nondeterminism out of the result cone,
this rule keeps the result cone's inputs *in* the cache key. A missed
input is a silent stale-cache bug: edit a cost model the key does not
cover and every subsequent grid quietly replays wrong numbers.

Two statically checkable halves:

* **code coverage** — the set of packages whose source the key digests
  (``_RESULT_PACKAGES`` in ``exec/cache.py``) must contain every
  package reachable from the result-producing roots (each concrete
  engine's module and ``run_cell``'s module) over module-level imports.
  ``if TYPE_CHECKING:`` blocks and function-local imports are excluded:
  they cannot affect a result at run time from those roots.
* **parameter coverage** — every parameter of ``run_cell`` (the single
  entry point that produces a ``RunResult``) must appear as a field in
  ``cell_key``'s canonical dict (``workload_name`` matches the
  ``"workload"`` key — the ``_name`` suffix is normalized).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..program import FunctionInfo, ModuleInfo, Program
from .base import Rule, Violation, concrete_engines

__all__ = ["CacheKeySoundnessRule"]


def _is_type_checking_if(stmt: ast.stmt) -> bool:
    if not isinstance(stmt, ast.If):
        return False
    test = stmt.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _module_level_imports(module: ModuleInfo) -> Iterator[ast.stmt]:
    """Top-level import statements that execute at run time.

    Recurses into plain ``if``/``try`` blocks (conditional-import
    idiom) but not into ``if TYPE_CHECKING:`` or any function/class
    body — those imports never run when the module is imported.
    """
    stack: List[ast.stmt] = list(module.source.tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If) and not _is_type_checking_if(stmt):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
            stack.extend(stmt.finalbody)
            for handler in stmt.handlers:
                stack.extend(handler.body)


def _imported_modules(program: Program, module: ModuleInfo) -> List[ModuleInfo]:
    """Program modules this module imports at module level."""
    found: Dict[str, ModuleInfo] = {}
    for stmt in _module_level_imports(module):
        if isinstance(stmt, ast.Import):
            dotted_names = [alias.name for alias in stmt.names]
        else:
            base = ("." * stmt.level) + (stmt.module or "")
            resolved_base = module.resolve_relative(base) if base else ""
            dotted_names = []
            if resolved_base:
                dotted_names.append(resolved_base)
            for alias in stmt.names:
                if resolved_base:
                    dotted_names.append(f"{resolved_base}.{alias.name}")
        for dotted in dotted_names:
            # importing a.b.c executes a/__init__ and a.b/__init__ too,
            # so the closure includes every ancestor package (the root
            # package itself is left out: its __init__ is re-exports
            # the digest does not cover)
            parts = dotted.split(".")
            for depth in range(2, len(parts) + 1):
                target = program.modules.get(".".join(parts[:depth]))
                if target is not None:
                    found[target.name] = target
    return [found[name] for name in sorted(found)]


def _result_module_closure(program: Program) -> List[ModuleInfo]:
    """Modules reachable over run-time imports from the result roots."""
    roots: Dict[str, ModuleInfo] = {}
    for engine in concrete_engines(program):
        roots[engine.module.name] = engine.module
    for qualname in sorted(program.functions):
        fn = program.functions[qualname]
        if fn.name == "run_cell" and fn.owner is None:
            roots[fn.module.name] = fn.module
    seen: Set[str] = set(roots)
    frontier = [roots[name] for name in sorted(roots)]
    order: List[ModuleInfo] = []
    while frontier:
        nxt: List[ModuleInfo] = []
        for module in frontier:
            order.append(module)
            for target in _imported_modules(program, module):
                if target.name not in seen:
                    seen.add(target.name)
                    nxt.append(target)
        frontier = sorted(nxt, key=lambda m: m.name)
    return order


def _cache_module(program: Program) -> Optional[ModuleInfo]:
    for name in sorted(program.modules):
        if name == "exec.cache" or name.endswith(".exec.cache"):
            return program.modules[name]
    return None


def _listed_packages(node: ast.expr) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        values = []
        for elt in node.elts:
            if not isinstance(elt, ast.Constant) or not isinstance(
                elt.value, str
            ):
                return None
            values.append(elt.value)
        return tuple(values)
    return None


def _dict_keys_in(fn: FunctionInfo) -> Set[str]:
    keys: Set[str] = set()
    for node in fn.index.walk(fn.node):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
    return keys


def _normalize_param(name: str) -> str:
    return name[: -len("_name")] if name.endswith("_name") else name


class CacheKeySoundnessRule(Rule):
    """Flag result inputs that do not flow into the cache key."""

    code = "RPL018"
    name = "cache-key-soundness"
    rationale = (
        "anything that can change a RunResult must be folded into the "
        "cache key, or a hit silently replays a stale result"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        cache_mod = _cache_module(program)
        if cache_mod is None:
            return  # no cache in the analyzed tree: nothing to check

        # -- half 1: _RESULT_PACKAGES covers the result import closure --
        packages_node = cache_mod.assigns.get("_RESULT_PACKAGES")
        listed = (
            _listed_packages(packages_node)
            if packages_node is not None
            else None
        )
        if listed is not None:
            root_parts = cache_mod.name_parts[:-2]  # repro.exec.cache → repro
            required: Dict[str, str] = {}
            for module in _result_module_closure(program):
                parts = module.name_parts
                if parts[: len(root_parts)] != tuple(root_parts):
                    continue  # outside the tree the digest covers
                extra = parts[len(root_parts):]
                if len(extra) < 2:
                    continue  # the root package itself (not digested)
                required.setdefault(extra[0], module.name)
            missing = sorted(set(required) - set(listed))
            for package in missing:
                assert packages_node is not None
                yield self.violation(
                    cache_mod.path,
                    packages_node,
                    f"package '{package}' is reachable from the result "
                    f"cone (via {required[package]}) but missing from "
                    f"_RESULT_PACKAGES — its edits would not bust the "
                    f"cache",
                )

        # -- half 2: run_cell's parameters all reach cell_key's dict --
        cell_key_fn = cache_mod.functions.get("cell_key")
        run_cell = None
        for qualname in sorted(program.functions):
            fn = program.functions[qualname]
            if fn.name == "run_cell" and fn.owner is None:
                run_cell = fn
                break
        if cell_key_fn is None or run_cell is None:
            return
        keys = _dict_keys_in(cell_key_fn)
        params = [
            arg.arg
            for arg in (
                run_cell.node.args.posonlyargs
                + run_cell.node.args.args
                + run_cell.node.args.kwonlyargs
            )
            if arg.arg not in ("self", "cls")
        ]
        for param in params:
            if _normalize_param(param) not in keys:
                yield self.violation(
                    cache_mod.path,
                    cell_key_fn.node,
                    f"run_cell parameter '{param}' can change the "
                    f"RunResult but never flows into cell_key's "
                    f"canonical dict — a cache hit would replay a "
                    f"stale result",
                )
