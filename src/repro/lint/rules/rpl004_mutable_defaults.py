"""RPL004 — mutable class-attribute defaults on model classes.

``Engine`` and ``Workload`` subclasses are instantiated once per run
but their class attributes are shared by *every* run in the process. A
``dict``/``list`` literal default (``features = {}``) is a single
object: one engine mutating it silently rewrites another engine's
metadata mid-grid. Defaults must be immutable — wrap mappings in
``types.MappingProxyType`` and sequences in tuples.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..program import Program
from ..source import dotted_parts
from .base import Rule, Violation, model_classes

__all__ = ["MutableClassDefaultRule"]

#: constructor calls that build a fresh *mutable* container
_MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "bytearray",
    "defaultdict", "OrderedDict", "Counter", "deque",
})

_MUTABLE_LITERALS = (
    ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp,
)


def _mutable_description(value: ast.AST) -> Optional[str]:
    if isinstance(value, _MUTABLE_LITERALS):
        kind = {
            ast.Dict: "dict", ast.DictComp: "dict",
            ast.List: "list", ast.ListComp: "list",
            ast.Set: "set", ast.SetComp: "set",
        }[type(value)]
        return f"{kind} literal"
    if isinstance(value, ast.Call):
        parts = dotted_parts(value.func)
        if parts and parts[-1] in _MUTABLE_CALLS:
            return f"{parts[-1]}() call"
    return None


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        parts = dotted_parts(target)
        if parts and parts[-1] == "dataclass":
            return True
    return False


class MutableClassDefaultRule(Rule):
    """Forbid shared mutable defaults on Engine/Workload class bodies."""

    code = "RPL004"
    name = "mutable-class-default"
    rationale = (
        "class attributes are shared across every run; mutable defaults "
        "let one engine's mutation leak into another's — use "
        "MappingProxyType/tuple or set the attribute per instance"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        for module in program.sources:
            models = model_classes(module)
            for cls in module.index.walk(module.tree):
                if not isinstance(cls, ast.ClassDef) or cls.name not in models:
                    continue
                if _is_dataclass(cls):
                    continue
                for stmt in cls.body:
                    if isinstance(stmt, ast.Assign):
                        value, targets = stmt.value, stmt.targets
                    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        value, targets = stmt.value, [stmt.target]
                    else:
                        continue
                    described = _mutable_description(value)
                    if not described:
                        continue
                    names = ", ".join(
                        t.id for t in targets if isinstance(t, ast.Name)
                    ) or "<attribute>"
                    yield self.violation(
                        module.path,
                        stmt,
                        f"mutable class attribute {names!r} ({described}) on "
                        f"{models[cls.name]} subclass {cls.name} is shared by "
                        f"every instance — use types.MappingProxyType / a tuple, "
                        f"or assign per instance in __init__",
                    )
