"""Reading and parsing one file, and everything a rule reads from it.

:func:`read_source` is the linter's only read-and-parse path: it turns a
file into a :class:`SourceModule` — text, AST, ``# noqa`` map, import
map and node index — or, when the file cannot be decoded or parsed,
into an RPL000 :class:`Violation`. The :class:`NodeIndex` records every
node's children during one walk of the file's tree, so rules query
subtrees instead of walking the tree again. The :class:`ImportMap`
resolves local names back to the fully qualified module path they were
imported from (``np.random.rand`` → ``numpy.random.rand``), which is
what lets the wall-clock and randomness rules see through aliases.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

__all__ = [
    "PARSE_ERROR_CODE",
    "Violation",
    "NodeIndex",
    "SourceModule",
    "ImportMap",
    "read_source",
    "dotted_parts",
    "dotted_name",
    "target_chain",
]

#: pseudo-code reported when a file cannot be decoded or parsed at all
PARSE_ERROR_CODE = "RPL000"

#: flake8-compatible suppression comment: ``# noqa`` or ``# noqa: RPL001, RPL004``
_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class Violation:
    """One finding: a rule code anchored to a file position."""

    code: str
    message: str
    path: str
    line: int
    col: int

    def format(self) -> str:
        """flake8-style one-liner: ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


class NodeIndex:
    """Every node of one file, recorded by one walk of its tree at parse time.

    The walk is ``ast.walk``'s own breadth-first traversal, keeping each
    node's children as it goes. ``walk(node)`` then returns what
    ``list(ast.walk(node))`` would — the same nodes in the same order —
    from those child lists, memoized per node, so asking twice costs
    nothing and no rule traverses the tree again.
    """

    def __init__(self, tree: ast.AST) -> None:
        self._children: Dict[ast.AST, Tuple[ast.AST, ...]] = {}
        order = [tree]
        for node in order:  # extends while iterating: breadth-first
            children = tuple(ast.iter_child_nodes(node))
            self._children[node] = children
            order.extend(children)
        self._walks: Dict[ast.AST, List[ast.AST]] = {tree: order}

    def children(self, node: ast.AST) -> Tuple[ast.AST, ...]:
        """``node``'s direct children, as ``ast.iter_child_nodes`` orders them."""
        return self._children[node]

    def walk(self, node: ast.AST) -> List[ast.AST]:
        """``node`` and all its descendants in ``ast.walk`` order."""
        found = self._walks.get(node)
        if found is None:
            found = [node]
            for item in found:  # extends while iterating: breadth-first
                found.extend(self._children[item])
            self._walks[node] = found
        return found


class ImportMap:
    """Maps local binding names to the qualified names they import."""

    def __init__(self) -> None:
        self._bindings: Dict[str, str] = {}

    @classmethod
    def from_nodes(cls, nodes: List[ast.AST]) -> "ImportMap":
        """Collect every import binding among a module's nodes."""
        imports = cls()
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports._bindings[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds the name ``a`` to package a
                        root = alias.name.split(".", 1)[0]
                        imports._bindings[root] = root
            elif isinstance(node, ast.ImportFrom):
                module = ("." * node.level) + (node.module or "")
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports._bindings[local] = f"{module}.{alias.name}"
        return imports

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Rewrite the first segment of a dotted name via the bindings."""
        if not dotted:
            return dotted
        head, _, rest = dotted.partition(".")
        target = self._bindings.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string, or None."""
    parts = dotted_parts(node)
    return ".".join(parts) if parts else None


def target_chain(node: ast.AST) -> Optional[List[str]]:
    """Name chain of an assignment target, looking through subscripts.

    ``graph.adj[0].weights`` → ``["graph", "adj", "weights"]``. Returns
    None when the target is not rooted at a plain name (e.g. a call
    result), which no purity rule can reason about statically.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            return parts
        else:
            return None


@dataclass
class SourceModule:
    """One file's worth of everything a rule needs."""

    path: str
    text: str
    tree: ast.Module
    index: NodeIndex
    imports: ImportMap
    #: line → suppressed codes; None means a bare ``# noqa`` (all codes)
    noqa: Dict[int, Optional[FrozenSet[str]]]

    @classmethod
    def parse(cls, text: str, path: str = "<string>") -> "SourceModule":
        """Parse source text; raises SyntaxError on unparseable input."""
        tree = ast.parse(text, filename=path)
        noqa: Dict[int, Optional[FrozenSet[str]]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _NOQA_RE.search(line)
            if match:
                codes = match.group("codes")
                noqa[lineno] = (
                    frozenset(c.strip().upper() for c in codes.split(","))
                    if codes
                    else None
                )
        index = NodeIndex(tree)
        return cls(
            path=path,
            text=text,
            tree=tree,
            index=index,
            imports=ImportMap.from_nodes(index.walk(tree)),
            noqa=noqa,
        )

    def suppressed(self, code: str, line: int) -> bool:
        """True when ``# noqa`` on ``line`` covers ``code``."""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        return codes is None or code in codes


def read_source(path: str) -> Union[SourceModule, Violation]:
    """Read and parse one file, or say why it cannot be linted.

    A file that is not valid UTF-8 or not valid Python is an RPL000
    finding, not a traceback, so a run keeps checking the rest of the
    tree. An unreadable file (``OSError``) propagates to the caller.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return Violation(
            code=PARSE_ERROR_CODE,
            message=f"could not decode file as UTF-8: {exc.reason}",
            path=path,
            line=1,
            col=0,
        )
    try:
        return SourceModule.parse(text, path=path)
    except SyntaxError as exc:
        return Violation(
            code=PARSE_ERROR_CODE,
            message=f"could not parse file: {exc.msg}",
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
        )
    except ValueError as exc:
        # python 3.9 raises bare ValueError for e.g. null bytes
        return Violation(
            code=PARSE_ERROR_CODE,
            message=f"could not parse file: {exc}",
            path=path,
            line=1,
            col=0,
        )
