"""Rule plumbing: the Rule ABC plus class-model and engine-model helpers.

Every rule checks the whole :class:`~repro.lint.program.Program` built
once per run: a file-local rule loops over ``program.sources``, a
whole-program rule queries the module, class and call tables. Both
emit the same :class:`Violation` records, so the reporters, ``# noqa``
filtering and the baseline treat every rule alike.

The file-local domain rules need to know which classes in a module are
part of the simulation's object model (Engine subclasses, Workload
subclasses). Inheritance crosses module boundaries, so
:func:`model_classes` combines two static signals: transitive base
resolution *within* the module, and the repo's strict naming convention
(every engine class name ends in ``Engine``; the abstract roots are
named ``Engine`` / ``Workload``). The whole-program rules instead read
static MROs: :func:`concrete_engines`, :func:`model_primitive_table`.
"""

from __future__ import annotations

import abc
import ast
import functools
import os
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..program import ClassInfo, Program, collect_assigns
from ..source import (
    NodeIndex,
    SourceModule,
    Violation,
    dotted_parts,
    read_source,
)

__all__ = [
    "Violation",
    "Rule",
    "model_classes",
    "base_names",
    "iter_methods",
    "concrete_engines",
    "model_primitive_table",
    "parse_primitive_set",
    "reraises",
]


class Rule(abc.ABC):
    """One checkable contract, with a stable code and rationale."""

    #: stable identifier used in reports and ``# noqa`` comments
    code: str = ""
    #: short human name shown by ``--list-rules``
    name: str = ""
    #: one-line statement of the contract this rule enforces
    rationale: str = ""

    @abc.abstractmethod
    def check(self, program: Program) -> Iterator[Violation]:
        """Yield every violation of this rule in ``program``."""

    def violation(self, path: str, node: ast.AST, message: str) -> Violation:
        """Build a Violation anchored at ``node`` in the file at ``path``."""
        return Violation(
            code=self.code,
            message=message,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(code={self.code!r})"


def base_names(cls: ast.ClassDef) -> List[str]:
    """Last segment of each base class expression (``abc.ABC`` → ``ABC``)."""
    names = []
    for base in cls.bases:
        parts = dotted_parts(base)
        if parts:
            names.append(parts[-1])
    return names


def model_classes(
    module: SourceModule, roots: Tuple[str, ...] = ("Engine", "Workload")
) -> Dict[str, str]:
    """Map each model class name in the module to the root it derives from.

    A class belongs to root ``R`` when its own name is ``R`` or ends with
    ``R`` (the repo's naming convention for cross-module subclasses), one
    of its base names is ``R`` or ends with ``R``, or one of its bases is
    another class in this module already classified under ``R``.
    """
    classes = [
        n for n in module.index.walk(module.tree) if isinstance(n, ast.ClassDef)
    ]
    classified: Dict[str, str] = {}

    def matches(name: str, root: str) -> bool:
        return name == root or name.endswith(root)

    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in classified:
                continue
            for root in roots:
                direct = matches(cls.name, root) or any(
                    matches(b, root) for b in base_names(cls)
                )
                inherited = any(
                    classified.get(b) == root for b in base_names(cls)
                )
                if direct or inherited:
                    classified[cls.name] = root
                    changed = True
                    break
    return classified


def iter_methods(
    cls: ast.ClassDef, names: Optional[Tuple[str, ...]] = None
) -> Iterator[ast.FunctionDef]:
    """The class body's (sync and async) method definitions, by name."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if names is None or node.name in names:
                yield node


def reraises(index: NodeIndex, handler: ast.ExceptHandler) -> bool:
    """True when an ``except`` handler contains a ``raise`` anywhere."""
    return any(isinstance(n, ast.Raise) for n in index.walk(handler))


def concrete_engines(program: Program) -> List[ClassInfo]:
    """Every instantiable Engine subclass, sorted by qualified name.

    A class is a concrete engine when a class named ``Engine`` appears
    in its static MRO (beyond itself) and no method resolved through
    that MRO is still abstract.
    """
    engines = []
    for qualname in sorted(program.classes):
        cls = program.classes[qualname]
        if cls.name == "Engine":
            continue
        linear = program.mro(cls)
        if not any(c.name == "Engine" for c in linear[1:]):
            continue
        method_names = {name for c in linear for name in c.methods}
        resolved = (program.resolve_method(cls, n) for n in method_names)
        if any(fn is not None and fn.is_abstract for fn in resolved):
            continue
        engines.append(cls)
    return engines


def parse_primitive_set(node: ast.expr) -> Optional[FrozenSet[str]]:
    """Statically evaluate a ``frozenset({...})`` / set-literal of strings."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name not in ("frozenset", "set") or len(node.args) != 1:
            return None
        node = node.args[0]
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        values = []
        for elt in node.elts:
            if not isinstance(elt, ast.Constant) or not isinstance(
                elt.value, str
            ):
                return None
            values.append(elt.value)
        return frozenset(values)
    return None


def _primitive_table(node: Optional[ast.expr]) -> Dict[str, FrozenSet[str]]:
    """Statically evaluate a ``MODEL_PRIMITIVES`` dict literal ({} if not one)."""
    table: Dict[str, FrozenSet[str]] = {}
    if isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if not isinstance(key, ast.Constant):
                continue
            parsed = parse_primitive_set(value)
            if parsed is not None:
                table[str(key.value)] = parsed
    return table


@functools.lru_cache(maxsize=None)
def _installed_primitive_table() -> Dict[str, FrozenSet[str]]:
    """``MODEL_PRIMITIVES`` from the AST of the ``repro/engines/base.py``
    installed next to this package; the module is never imported."""
    lint_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(os.path.dirname(lint_dir), "engines", "base.py")
    source = read_source(path)
    if isinstance(source, Violation):
        return {}
    return _primitive_table(
        collect_assigns(source.tree.body).get("MODEL_PRIMITIVES")
    )


def model_primitive_table(program: Program) -> Dict[str, FrozenSet[str]]:
    """The model → allowed-primitives map, parsed from ``engines.base``.

    When the analyzed tree has no ``engines.base`` module or its table
    is unparseable (fixture trees), the table comes from the installed
    ``repro/engines/base.py`` instead: the contract lives with the
    engines, never in a copy kept by the linter.
    """
    for name in sorted(program.modules):
        if name == "engines.base" or name.endswith(".engines.base"):
            node = program.modules[name].assigns.get("MODEL_PRIMITIVES")
            table = _primitive_table(node)
            if table:
                return table
    return dict(_installed_primitive_table())
