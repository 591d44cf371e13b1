"""Thread roots, lock discovery, and interprocedural lockset analysis.

Threads in the serving stack may share state only under a consistent
locking discipline. Today the daemon shares nothing: one event loop
owns all its state, on the thread that calls ``serve_forever`` or on
the one thread ``start()`` runs it on. This module gives the
concurrency rules (RPL021-RPL024) the machinery to machine-check that,
Eraser-style:

* **thread roots** — the entry points concurrency can start from:
  ``handle`` methods of socketserver handler classes plus every
  ``_op_*`` protocol method (the name-dispatch convention, via
  ``getattr``, which no call graph resolves), the resolved ``target=``
  of every ``threading.Thread(...)`` call, and the public surface of
  any thread-spawning class standing in for the main thread;
* **lockset abstract interpretation** — a worklist pass per root that
  walks each reachable function lexically, tracking the *must*-hold
  (intersection over call paths) and *may*-hold (union) lock sets
  through ``with lock:`` blocks and explicit ``acquire``/``release``,
  and propagating entry locksets interprocedurally through the call
  graph;
* **typed receivers** — a light annotation-driven type environment
  (constructor assignments, parameter/return annotations, container
  element types) so ``job.state``, ``self.runner.cache.evictions``, or
  a ``payloads = job.payloads`` alias all attribute accesses to the
  class field they really touch.

Attribute calls resolve only through exact imports or the type
environment — never the whole-program same-name fallback — because a
race checker must not invent sharing that cannot happen. The walk stays
inside the RPL009 concurrency packages (``exec``/``serve``); calls that
leave them are checked for blocking behaviour at the boundary.

Everything is deterministic: roots, worklists, and event stores are
sorted, so two runs over the same tree produce byte-identical reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .callgraph import _classify, resolve_targets
from .hotpath import pool_dispatch
from .program import ClassInfo, FunctionInfo, ModuleInfo, Program
from .source import dotted_parts

__all__ = [
    "CONCURRENT_PACKAGES",
    "LockInfo",
    "ThreadRoot",
    "FieldAccess",
    "GlobalAccess",
    "BlockingCall",
    "SyncOp",
    "ConcurrencyAnalysis",
    "field_groups",
    "global_groups",
]

#: packages allowed to spawn threads/processes (RPL009's concurrency doors)
CONCURRENT_PACKAGES = ("exec", "serve")

#: threading constructors whose instances are lock-like
_LOCK_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: socketserver bases whose subclasses run one thread per connection
_HANDLER_BASES = (
    "StreamRequestHandler", "DatagramRequestHandler", "BaseRequestHandler",
)

#: in-place mutators on the builtin containers
_MUTATORS = frozenset({
    "append", "add", "update", "setdefault", "clear", "extend", "insert",
    "pop", "popitem", "remove", "discard", "appendleft", "extendleft",
    "move_to_end",
})

#: constructors whose result is mutable shared state (module globals)
_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
})

#: plain-name calls that block the calling thread
_BLOCKING_NAMES = frozenset({"host_sleep", "sleep", "open"})

#: attribute calls that block: socket, file/journal I/O, host sleeps
_BLOCKING_ATTRS = frozenset({
    "recv", "recv_into", "accept", "connect", "send", "sendall", "sendfile",
    "sleep", "host_sleep", "read", "readline", "readinto", "write", "flush",
    "fsync", "write_text", "write_bytes", "read_text", "read_bytes",
    "unlink", "mkdir", "replace", "rename", "rmdir",
})

#: container annotations whose last resolvable argument is the element
_CONTAINER_NAMES = frozenset({
    "List", "Sequence", "Iterable", "Iterator", "Dict", "Mapping",
    "MutableMapping", "Set", "FrozenSet", "DefaultDict", "OrderedDict",
    "Deque", "list", "dict", "set",
})

_INIT_METHODS = ("__init__", "__post_init__")


def _in_scope(module: ModuleInfo) -> bool:
    return any(pkg in module.name_parts for pkg in CONCURRENT_PACKAGES)


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        parts = dotted_parts(node.func)
        return bool(parts) and parts[-1] in _MUTABLE_CONSTRUCTORS
    return False


def _binds_locally(fn: FunctionInfo, name: str) -> bool:
    """True when ``name`` is a parameter or plain local of ``fn``."""
    node = fn.node
    args = node.args
    for arg in (
        args.posonlyargs + args.args + args.kwonlyargs
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        if arg.arg == name:
            return True
    for sub in fn.index.walk(node):
        if isinstance(sub, ast.Global) and name in sub.names:
            return False
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return True
        if isinstance(sub, (ast.For, ast.AsyncFor)):
            for t in fn.index.walk(sub.target):
                if isinstance(t, ast.Name) and t.id == name:
                    return True
    return False


# -- data records -----------------------------------------------------------


@dataclass(frozen=True)
class LockInfo:
    """One discovered lock: a threading primitive bound to a stable id."""

    lock_id: str  # "pkg.mod.Class.attr" or "pkg.mod.attr"
    display: str  # how code spells it: "self.cond", "REGISTRY_LOCK"
    kind: str  # Condition | Lock | RLock | Semaphore | BoundedSemaphore


@dataclass(frozen=True)
class ThreadRoot:
    """One entry point a thread can start executing the program from."""

    name: str  # display: "handler:_op_submit", "thread:serve-scheduler"
    thread_id: str  # identity: roots sharing it run on the same thread(s)
    fn: FunctionInfo
    binding: Optional[ClassInfo]
    multi: bool  # True when many threads run this root concurrently


@dataclass(frozen=True)
class FieldAccess:
    """One read/write of a shared-class instance field under a lockset."""

    root: ThreadRoot
    fn: FunctionInfo
    node: ast.AST
    cls: str  # owner class qualname
    attr: str
    is_write: bool
    must: FrozenSet[str]


@dataclass(frozen=True)
class GlobalAccess:
    """One read/write of a module-level mutable under a lockset."""

    root: ThreadRoot
    fn: FunctionInfo
    node: ast.AST
    module: str  # owning module dotted name
    var: str
    is_write: bool
    must: FrozenSet[str]


@dataclass(frozen=True)
class BlockingCall:
    """A call that parks the thread, with the locks possibly still held."""

    root: ThreadRoot
    fn: FunctionInfo
    node: ast.AST
    reason: str  # what blocks: "host_sleep()", ".join()", "file write", ...
    may: FrozenSet[str]


@dataclass(frozen=True)
class SyncOp:
    """A wait/notify/notify_all on a discovered condition/lock."""

    root: ThreadRoot
    fn: FunctionInfo
    node: ast.AST
    lock: LockInfo
    kind: str  # wait | wait_for | notify | notify_all
    must: FrozenSet[str]
    may: FrozenSet[str]
    in_while: bool  # lexically inside a non-constant while loop


# -- the type environment ---------------------------------------------------

#: a light type: ("obj", cls_qualname) or ("elem", cls_qualname) for a
#: container whose elements are instances of that class
TypeRef = Tuple[str, str]


class _TypeEnv:
    """Annotation- and constructor-driven receiver typing for scope classes."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.scope_classes: Dict[str, ClassInfo] = {}
        #: (cls qualname, attr) -> TypeRef of the field's value
        self.field_types: Dict[Tuple[str, str], TypeRef] = {}
        #: cls qualname -> every instance-field name seen declared/assigned
        self.fields: Dict[str, Set[str]] = {}
        #: (cls qualname, attr) -> LockInfo for threading-primitive fields
        self.lock_fields: Dict[Tuple[str, str], LockInfo] = {}
        #: (module name, var) -> LockInfo for module-level locks
        self.global_locks: Dict[Tuple[str, str], LockInfo] = {}
        for name in sorted(program.modules):
            module = program.modules[name]
            if not _in_scope(module):
                continue
            for var in sorted(module.assigns):
                kind = self._lock_kind(module.assigns[var], module)
                if kind is not None:
                    self.global_locks[(module.name, var)] = LockInfo(
                        lock_id=f"{module.name}.{var}", display=var, kind=kind
                    )
            for cls_name in sorted(module.classes):
                cls = module.classes[cls_name]
                self.scope_classes[cls.qualname] = cls
        # second pass: field typing needs every scope class registered
        for qualname in sorted(self.scope_classes):
            self._collect_class(self.scope_classes[qualname])

    # -- construction --

    def _lock_kind(self, value: ast.expr, module: ModuleInfo) -> Optional[str]:
        """'Condition'/'Lock'/... when ``value`` constructs a threading lock."""
        if not isinstance(value, ast.Call):
            return None
        parts = dotted_parts(value.func)
        if not parts:
            return None
        resolved = module.source.imports.resolve(".".join(parts)) or ""
        if resolved.startswith("threading.") or (
            len(parts) >= 2 and parts[-2] == "threading"
        ):
            if parts[-1] in _LOCK_CONSTRUCTORS:
                return parts[-1]
        return None

    def _collect_class(self, cls: ClassInfo) -> None:
        fields = self.fields.setdefault(cls.qualname, set())
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                fields.add(stmt.target.id)
                ref = self.annotation_type(stmt.annotation, cls.module)
                if ref is not None:
                    self.field_types[(cls.qualname, stmt.target.id)] = ref
        for mname in sorted(cls.methods):
            method = cls.methods[mname]
            init = mname in _INIT_METHODS
            for node in method.index.walk(method.node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    annotation = node.annotation
                elif isinstance(node, ast.AugAssign):
                    target = node.target
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                fields.add(target.attr)
                if not init:
                    continue
                key = (cls.qualname, target.attr)
                kind = (
                    self._lock_kind(value, cls.module)
                    if value is not None else None
                )
                if kind is not None:
                    self.lock_fields[key] = LockInfo(
                        lock_id=f"{cls.qualname}.{target.attr}",
                        display=f"self.{target.attr}",
                        kind=kind,
                    )
                    continue
                if key in self.field_types:
                    continue
                ref = None
                if annotation is not None:
                    ref = self.annotation_type(annotation, cls.module)
                if ref is None and value is not None:
                    ref = self._init_value_type(value, method, cls)
                if ref is not None:
                    self.field_types[key] = ref

    def _init_value_type(
        self, value: ast.expr, init: FunctionInfo, cls: ClassInfo
    ) -> Optional[TypeRef]:
        """Type ``self.x = <value>`` in __init__: constructor or parameter."""
        if isinstance(value, ast.Call):
            return self.constructed_type(value, cls.module)
        if isinstance(value, ast.Name):
            for arg in init.node.args.args + init.node.args.kwonlyargs:
                if arg.arg == value.id and arg.annotation is not None:
                    return self.annotation_type(arg.annotation, cls.module)
        return None

    # -- resolution --

    def _class_ref(
        self, node: ast.expr, module: ModuleInfo
    ) -> Optional[ClassInfo]:
        parts = dotted_parts(node)
        if not parts:
            return None
        dotted = module.source.imports.resolve(".".join(parts)) or ".".join(
            parts
        )
        dotted = module.resolve_relative(dotted)
        found = self.program.resolve_class(dotted, module)
        if found is not None and found.qualname in self.scope_classes:
            return found
        return None

    def annotation_type(
        self, node: Optional[ast.expr], module: ModuleInfo
    ) -> Optional[TypeRef]:
        """TypeRef of an annotation expression, seeing through Optional etc."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation is an expression snippet, not a file
            try:
                node = ast.parse(
                    node.value, filename="<annotation>", mode="eval"
                ).body
            except SyntaxError:
                return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            cls = self._class_ref(node, module)
            return ("obj", cls.qualname) if cls is not None else None
        if isinstance(node, ast.Subscript):
            base = dotted_parts(node.value)
            if not base:
                return None
            inner = node.slice
            if isinstance(inner, ast.Index):  # pragma: no cover - py<3.9
                inner = inner.value  # type: ignore[attr-defined]
            elems = (
                list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
            )
            if base[-1] in ("Optional", "Union"):
                for elem in elems:
                    ref = self.annotation_type(elem, module)
                    if ref is not None:
                        return ref
                return None
            if base[-1] in _CONTAINER_NAMES:
                for elem in reversed(elems):
                    ref = self.annotation_type(elem, module)
                    if ref is not None and ref[0] == "obj":
                        return ("elem", ref[1])
        return None

    def constructed_type(
        self, call: ast.Call, module: ModuleInfo
    ) -> Optional[TypeRef]:
        cls = self._class_ref(call.func, module)
        return ("obj", cls.qualname) if cls is not None else None

    def field_type(self, cls_qualname: str, attr: str) -> Optional[TypeRef]:
        cls = self.scope_classes.get(cls_qualname)
        if cls is None:
            return None
        for c in self.program.mro(cls):
            ref = self.field_types.get((c.qualname, attr))
            if ref is not None:
                return ref
        return None

    def field_owner(self, cls_qualname: str, attr: str) -> Optional[str]:
        """The MRO class that declares ``attr``, for stable field identity."""
        cls = self.scope_classes.get(cls_qualname)
        if cls is None:
            return None
        for c in self.program.mro(cls):
            if attr in self.fields.get(c.qualname, ()):
                return c.qualname
        return None

    def lock_field(
        self, cls_qualname: str, attr: str
    ) -> Optional[LockInfo]:
        cls = self.scope_classes.get(cls_qualname)
        if cls is None:
            return None
        for c in self.program.mro(cls):
            info = self.lock_fields.get((c.qualname, attr))
            if info is not None:
                return info
        return None


# -- the analysis -----------------------------------------------------------

_NodeKey = Tuple[str, str]  # (fn qualname, binding qualname or "")


class ConcurrencyAnalysis:
    """Per-program lockset analysis shared by the four concurrency rules."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.types = _TypeEnv(program)
        self.roots = self._discover_roots()
        self.field_accesses: List[FieldAccess] = []
        self.global_accesses: List[GlobalAccess] = []
        self.blocking_calls: List[BlockingCall] = []
        self.sync_ops: List[SyncOp] = []
        #: (held, acquired) -> (path, node, fn qualname) first witness
        self.order_edges: Dict[Tuple[str, str], Tuple[str, ast.AST, str]] = {}
        self.shared_classes = self._shared_classes()
        for root in self.roots:
            self._run_root(root)

    @classmethod
    def of(cls, program: Program) -> "ConcurrencyAnalysis":
        """The memoized analysis for ``program`` (one build, four rules)."""
        return program.memo(cls, lambda: cls(program))

    # -- thread-root discovery --

    def _scope_functions(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.program.functions):
            fn = self.program.functions[qualname]
            if _in_scope(fn.module):
                yield fn

    def _is_handler_class(self, cls: ClassInfo) -> bool:
        return any(
            ref.rsplit(".", 1)[-1] in _HANDLER_BASES for ref in cls.base_refs
        )

    def _thread_target(
        self, call: ast.Call, fn: FunctionInfo
    ) -> Optional[Tuple[FunctionInfo, Optional[ClassInfo], str]]:
        """(target fn, binding, display name) of a Thread(...) call, if any."""
        parts = dotted_parts(call.func)
        if not parts:
            return None
        resolved = fn.module.source.imports.resolve(".".join(parts)) or ""
        if resolved != "threading.Thread" and parts[-1] != "Thread":
            return None
        target_expr: Optional[ast.expr] = None
        display = ""
        for kw in call.keywords:
            if kw.arg == "target":
                target_expr = kw.value
            elif kw.arg == "name" and isinstance(kw.value, ast.Constant):
                display = str(kw.value.value)
        if target_expr is None:
            return None
        if isinstance(target_expr, ast.Attribute):
            if (
                isinstance(target_expr.value, ast.Name)
                and target_expr.value.id == "self"
                and fn.owner is not None
            ):
                target = self.program.resolve_method(
                    fn.owner, target_expr.attr
                )
                if target is not None and _in_scope(target.module):
                    return target, fn.owner, display
            return None
        if isinstance(target_expr, ast.Name):
            target = fn.module.functions.get(target_expr.id)
            if target is not None:
                return target, None, display
        return None

    def _discover_roots(self) -> List[ThreadRoot]:
        roots: Dict[Tuple[str, str], ThreadRoot] = {}

        def add(root: ThreadRoot) -> None:
            roots.setdefault((root.thread_id, root.fn.qualname), root)

        spawners: Set[str] = set()  # class qualnames that start threads
        targets: Set[str] = set()  # fn qualnames that run on spawned threads
        for fn in self._scope_functions():
            for node in fn.index.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                hit = self._thread_target(node, fn)
                if hit is None:
                    parts = dotted_parts(node.func)
                    if parts and parts[-1] == "Thread" and fn.owner is not None:
                        spawners.add(fn.owner.qualname)
                    continue
                target, binding, display = hit
                if fn.owner is not None:
                    spawners.add(fn.owner.qualname)
                targets.add(target.qualname)
                add(ThreadRoot(
                    name=f"thread:{display or target.name}",
                    thread_id=f"thread:{target.qualname}",
                    fn=target,
                    binding=binding,
                    multi=False,
                ))
        for qualname in sorted(self.types.scope_classes):
            cls = self.types.scope_classes[qualname]
            if self._is_handler_class(cls):
                handle = cls.methods.get("handle")
                if handle is not None:
                    add(ThreadRoot(
                        name=f"handler:{cls.name}.handle",
                        thread_id=f"handler:{cls.qualname}",
                        fn=handle,
                        binding=cls,
                        multi=True,
                    ))
            for mname in sorted(cls.methods):
                # protocol ops dispatch via getattr(self, f"_op_{op}") —
                # statically unresolvable, so each is its own handler root
                if mname.startswith("_op_"):
                    add(ThreadRoot(
                        name=f"handler:{cls.name}.{mname}",
                        thread_id=f"handler:{cls.qualname}",
                        fn=cls.methods[mname],
                        binding=cls,
                        multi=True,
                    ))
        for qualname in sorted(spawners):
            cls = self.types.scope_classes.get(qualname)
            if cls is None:
                continue
            # the thread-spawning class's public surface stands in for
            # the main thread (its CLI/test drivers)
            for mname in sorted(cls.methods):
                method = cls.methods[mname]
                if mname.startswith("_") and mname != "__init__":
                    continue
                if mname == "handle" or method.qualname in targets:
                    continue
                add(ThreadRoot(
                    name=f"main:{cls.name}.{mname}",
                    thread_id="main",
                    fn=method,
                    binding=cls,
                    multi=False,
                ))
        return sorted(roots.values(), key=lambda r: (r.name, r.fn.qualname))

    def _shared_classes(self) -> Set[str]:
        """Classes whose instances can actually be seen by two threads.

        Seed: every class that owns roots on two thread identities (or
        a self-concurrent root). Closure: follow typed field references
        — an object is shareable only if it hangs off a shared one. A
        class instantiated fresh inside one root's call chain (a
        per-run ``_GridRun``, a local buffer) never enters the set, so
        its fields are thread-confined by construction, not by luck.
        """
        by_class: Dict[str, Set[str]] = {}
        multi: Set[str] = set()
        for root in self.roots:
            if root.binding is None:
                continue
            by_class.setdefault(
                root.binding.qualname, set()
            ).add(root.thread_id)
            if root.multi:
                multi.add(root.binding.qualname)
        shared: Set[str] = set()
        work = sorted(
            q for q, ids in by_class.items() if len(ids) >= 2 or q in multi
        )
        while work:
            qualname = work.pop()
            if qualname in shared:
                continue
            shared.add(qualname)
            cls = self.types.scope_classes.get(qualname)
            if cls is None:
                continue
            for c in self.program.mro(cls):
                shared.add(c.qualname)
                for key in sorted(self.types.field_types):
                    if key[0] == c.qualname:
                        work.append(self.types.field_types[key][1])
        return shared

    # -- per-root lockset fixpoint --

    def _run_root(self, root: ThreadRoot) -> None:
        entries: Dict[_NodeKey, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        nodes: Dict[_NodeKey, Tuple[FunctionInfo, Optional[ClassInfo]]] = {}
        key0 = (root.fn.qualname, root.binding.qualname if root.binding else "")
        entries[key0] = (frozenset(), frozenset())
        nodes[key0] = (root.fn, root.binding)
        worklist = [key0]
        while worklist:
            key = worklist.pop(0)
            fn, binding = nodes[key]
            must, may = entries[key]

            def flow(
                target: FunctionInfo,
                tbinding: Optional[ClassInfo],
                tmust: FrozenSet[str],
                tmay: FrozenSet[str],
            ) -> None:
                if not _in_scope(target.module):
                    return
                tkey = (
                    target.qualname,
                    tbinding.qualname if tbinding else "",
                )
                nodes.setdefault(tkey, (target, tbinding))
                old = entries.get(tkey)
                new = (
                    (tmust, tmay) if old is None
                    else (old[0] & tmust, old[1] | tmay)
                )
                if old != new:
                    entries[tkey] = new
                    if tkey not in worklist:
                        worklist.append(tkey)
            walker = _Walker(self, root, fn, binding, collect=False, flow=flow)
            walker.run(set(must), set(may))
            worklist.sort()
        for key in sorted(entries):
            fn, binding = nodes[key]
            must, may = entries[key]
            if fn.name in _INIT_METHODS:
                continue  # constructors publish before threads can see
            walker = _Walker(self, root, fn, binding, collect=True, flow=None)
            walker.run(set(must), set(may))

    def record_edge(
        self, held: str, acquired: str, path: str, node: ast.AST, fn: str
    ) -> None:
        self.order_edges.setdefault((held, acquired), (path, node, fn))


# -- grouping helpers shared by RPL021/RPL024 -------------------------------


@dataclass
class AccessGroup:
    """Every access to one shared location, with its concurrency verdict."""

    key: Tuple[str, str]  # (cls qualname, attr) or (module, var)
    accesses: List[FieldAccess] = field(default_factory=list)

    @property
    def writes(self) -> List[FieldAccess]:
        return [a for a in self.accesses if a.is_write]

    @property
    def thread_ids(self) -> List[str]:
        return sorted({a.root.thread_id for a in self.accesses})

    @property
    def concurrent(self) -> bool:
        """Can two threads race on this location?"""
        if len(self.thread_ids) >= 2:
            return True
        return any(a.root.multi for a in self.accesses)

    @property
    def candidate_locks(self) -> FrozenSet[str]:
        """Eraser's candidate set: locks held at *every* access."""
        locksets = [a.must for a in self.accesses]
        out = locksets[0]
        for held in locksets[1:]:
            out = out & held
        return out


def _sort_key(access) -> Tuple[str, int, int, str]:
    node = access.node
    return (
        access.fn.module.path,
        getattr(node, "lineno", 1),
        getattr(node, "col_offset", 0),
        access.root.name,
    )


def field_groups(analysis: ConcurrencyAnalysis) -> List[AccessGroup]:
    """Per-(class, field) access groups, deterministically ordered."""
    groups: Dict[Tuple[str, str], AccessGroup] = {}
    for access in analysis.field_accesses:
        group = groups.setdefault(
            (access.cls, access.attr),
            AccessGroup(key=(access.cls, access.attr)),
        )
        group.accesses.append(access)
    for group in groups.values():
        group.accesses.sort(key=_sort_key)
    return [groups[key] for key in sorted(groups)]


def global_groups(analysis: ConcurrencyAnalysis) -> List[AccessGroup]:
    """Per-(module, variable) access groups for module-level mutables."""
    groups: Dict[Tuple[str, str], AccessGroup] = {}
    for access in analysis.global_accesses:
        group = groups.setdefault(
            (access.module, access.var),
            AccessGroup(key=(access.module, access.var)),
        )
        group.accesses.append(access)  # type: ignore[arg-type]
    for group in groups.values():
        group.accesses.sort(key=_sort_key)
    return [groups[key] for key in sorted(groups)]


# -- the lexical lockset walker ---------------------------------------------


class _Walker:
    """One pass over a function body tracking must/may-held locksets."""

    def __init__(
        self,
        analysis: ConcurrencyAnalysis,
        root: ThreadRoot,
        fn: FunctionInfo,
        binding: Optional[ClassInfo],
        collect: bool,
        flow,
    ) -> None:
        self.analysis = analysis
        self.types = analysis.types
        self.program = analysis.program
        self.root = root
        self.fn = fn
        self.binding = binding
        self.collect = collect
        self.flow = flow
        self.while_depth = 0
        self.env = self._local_env()
        self.aliases = self._alias_map()

    # -- local typing --

    def _local_env(self) -> Dict[str, TypeRef]:
        env: Dict[str, TypeRef] = {}
        module = self.fn.module
        node = self.fn.node
        if self.binding is not None and (node.args.args or node.args.posonlyargs):
            first = (node.args.posonlyargs + node.args.args)[0]
            if first.arg in ("self", "cls"):
                env[first.arg] = ("obj", self.binding.qualname)
        for arg in (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        ):
            if arg.annotation is not None and arg.arg not in env:
                ref = self.types.annotation_type(arg.annotation, module)
                if ref is not None:
                    env[arg.arg] = ref
        assigns: List[ast.stmt] = [
            sub for sub in self.fn.index.walk(node)
            if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.For,
                                ast.AsyncFor))
        ]
        assigns.sort(key=lambda s: (s.lineno, s.col_offset))
        for _ in range(2):  # two passes settle simple forward chains
            for stmt in assigns:
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if not isinstance(stmt.target, ast.Name):
                        continue
                    ref = self.expr_type(stmt.iter, env)
                    if ref is not None and ref[0] == "elem":
                        env[stmt.target.id] = ("obj", ref[1])
                    continue
                target = (
                    stmt.targets[0] if isinstance(stmt, ast.Assign)
                    else stmt.target
                )
                if not isinstance(target, ast.Name):
                    continue
                ref: Optional[TypeRef] = None
                if isinstance(stmt, ast.AnnAssign):
                    ref = self.types.annotation_type(stmt.annotation, module)
                if ref is None and getattr(stmt, "value", None) is not None:
                    ref = self.expr_type(stmt.value, env)
                if ref is not None:
                    env[target.id] = ref
        return env

    def _alias_map(self) -> Dict[str, Tuple[str, str]]:
        """Locals bound directly to a shared field (``payloads = job.payloads``)."""
        aliases: Dict[str, Tuple[str, str]] = {}
        for sub in self.fn.index.walk(self.fn.node):
            if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                continue
            target = (
                sub.targets[0]
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1
                else sub.target if isinstance(sub, ast.AnnAssign) else None
            )
            value = sub.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Attribute)
            ):
                ref = self.expr_type(value.value, self.env)
                if ref is not None and ref[0] == "obj":
                    owner = self.types.field_owner(ref[1], value.attr)
                    if owner is not None:
                        # only track container-valued fields: an alias to
                        # an immutable value is a copy, not shared state
                        ftype = self.types.field_type(ref[1], value.attr)
                        if ftype is None or ftype[0] == "elem":
                            aliases[target.id] = (owner, value.attr)
        return aliases

    def expr_type(
        self, node: ast.expr, env: Dict[str, TypeRef]
    ) -> Optional[TypeRef]:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.expr_type(node.value, env)
            if base is not None and base[0] == "obj":
                return self.types.field_type(base[1], node.attr)
            return None
        if isinstance(node, ast.Subscript):
            base = self.expr_type(node.value, env)
            if base is not None and base[0] == "elem":
                return ("obj", base[1])
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return self.types.constructed_type(node, self.fn.module)
            if isinstance(func, ast.Attribute):
                if func.attr in ("values", "copy"):
                    return self.expr_type(func.value, env)
                if func.attr in ("get", "pop", "popleft", "take"):
                    base = self.expr_type(func.value, env)
                    if base is not None and base[0] == "elem":
                        return ("obj", base[1])
                base = self.expr_type(func.value, env)
                if base is not None and base[0] == "obj":
                    cls = self.types.scope_classes.get(base[1])
                    if cls is not None:
                        method = self.program.resolve_method(cls, func.attr)
                        if method is not None:
                            return self.types.annotation_type(
                                method.node.returns, method.module
                            )
            return None
        return None

    # -- lock resolution --

    def lock_at(self, expr: ast.expr) -> Optional[LockInfo]:
        if isinstance(expr, ast.Name):
            info = self.types.global_locks.get(
                (self.fn.module.name, expr.id)
            )
            if info is not None and not _binds_locally(self.fn, expr.id):
                return info
            resolved = self.fn.module.source.imports.resolve(expr.id)
            if resolved:
                dotted = self.fn.module.resolve_relative(resolved)
                owner, _, var = dotted.rpartition(".")
                return self.types.global_locks.get((owner, var))
            return None
        if isinstance(expr, ast.Attribute):
            base = self.expr_type(expr.value, self.env)
            if base is not None and base[0] == "obj":
                return self.types.lock_field(base[1], expr.attr)
        return None

    # -- driving --

    def run(self, must: Set[str], may: Set[str]) -> None:
        self._stmts(self.fn.node.body, must, may)

    def _stmts(
        self, body: List[ast.stmt], must: Set[str], may: Set[str]
    ) -> None:
        for stmt in body:
            self._stmt(stmt, must, may)

    def _stmt(self, stmt: ast.stmt, must: Set[str], may: Set[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested def (progress hooks, closures) is approximated at
            # its definition point: the lockset there is the best static
            # guess for the lockset at its eventual call sites
            self._stmts(stmt.body, set(must), set(may))
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner_must, inner_may = set(must), set(may)
            for item in stmt.items:
                self._scan(item.context_expr, inner_must, inner_may)
                lock = self.lock_at(item.context_expr)
                if lock is not None:
                    for held in sorted(inner_may):
                        if held != lock.lock_id:
                            self.analysis.record_edge(
                                held, lock.lock_id, self.fn.module.path,
                                item.context_expr, self.fn.qualname,
                            )
                    inner_must.add(lock.lock_id)
                    inner_may.add(lock.lock_id)
            self._stmts(stmt.body, inner_must, inner_may)
            return
        if isinstance(stmt, ast.If):
            self._scan(stmt.test, must, may)
            self._stmts(stmt.body, set(must), set(may))
            self._stmts(stmt.orelse, set(must), set(may))
            return
        if isinstance(stmt, ast.While):
            self._scan(stmt.test, must, may)
            trivial = (
                isinstance(stmt.test, ast.Constant)
                and stmt.test.value is True
            )
            if not trivial:
                self.while_depth += 1
            self._stmts(stmt.body, set(must), set(may))
            if not trivial:
                self.while_depth -= 1
            self._stmts(stmt.orelse, set(must), set(may))
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan(stmt.iter, must, may)
            self._stmts(stmt.body, set(must), set(may))
            self._stmts(stmt.orelse, set(must), set(may))
            return
        if isinstance(stmt, ast.Try):
            self._stmts(stmt.body, set(must), set(may))
            for handler in stmt.handlers:
                self._stmts(handler.body, set(must), set(may))
            self._stmts(stmt.orelse, set(must), set(may))
            self._stmts(stmt.finalbody, set(must), set(may))
            return
        self._scan(stmt, must, may)

    # -- flat statement scanning --

    def _write_marks(self, stmt: ast.AST) -> Set[int]:
        """ids of Attribute/Name nodes this statement writes through."""
        marks: Set[int] = set()

        def mark(target: ast.expr) -> None:
            if isinstance(target, (ast.Attribute, ast.Name)):
                marks.add(id(target))
            elif isinstance(target, ast.Subscript):
                mark(target.value)
            elif isinstance(target, ast.Starred):
                mark(target.value)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    mark(elt)

        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                mark(target)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            mark(stmt.target)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                mark(target)
        for sub in self.fn.index.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _MUTATORS
            ):
                mark(sub.func.value)
        return marks

    def _scan(self, node: ast.AST, must: Set[str], may: Set[str]) -> None:
        marks = self._write_marks(node)
        for sub in self.fn.index.walk(node):
            if isinstance(sub, ast.Call):
                self._call(sub, must, may)
            elif isinstance(sub, ast.Attribute):
                self._attribute(sub, sub.ctx, marks, must)
            elif isinstance(sub, ast.Name):
                self._name(sub, sub.ctx, marks, must, node)

    def _attribute(
        self, node: ast.Attribute, ctx: ast.expr_context,
        marks: Set[int], must: Set[str],
    ) -> None:
        if not self.collect:
            return
        base = self.expr_type(node.value, self.env)
        if base is None or base[0] != "obj":
            return
        owner = self.types.field_owner(base[1], node.attr)
        if owner is None or base[1] not in self.analysis.shared_classes:
            return
        is_write = (
            id(node) in marks or isinstance(ctx, (ast.Store, ast.Del))
        )
        self.analysis.field_accesses.append(FieldAccess(
            root=self.root, fn=self.fn, node=node, cls=owner,
            attr=node.attr, is_write=is_write, must=frozenset(must),
        ))

    def _name(
        self, node: ast.Name, ctx: ast.expr_context,
        marks: Set[int], must: Set[str], stmt: ast.AST,
    ) -> None:
        if not self.collect:
            return
        alias = self.aliases.get(node.id)
        if alias is not None and alias[0] not in self.analysis.shared_classes:
            alias = None
        if alias is not None and not isinstance(ctx, ast.Store):
            self.analysis.field_accesses.append(FieldAccess(
                root=self.root, fn=self.fn, node=node, cls=alias[0],
                attr=alias[1], is_write=id(node) in marks,
                must=frozenset(must),
            ))
            return
        module = self.fn.module
        owner: Optional[str] = None
        var = node.id
        if (
            var in module.assigns
            and _is_mutable_value(module.assigns[var])
            and not _binds_locally(self.fn, var)
        ):
            owner = module.name
        else:
            resolved = module.source.imports.resolve(var)
            if resolved:
                dotted = module.resolve_relative(resolved)
                mod_name, _, attr = dotted.rpartition(".")
                other = self.program.modules.get(mod_name)
                if (
                    other is not None and _in_scope(other)
                    and attr in other.assigns
                    and _is_mutable_value(other.assigns[attr])
                ):
                    owner, var = other.name, attr
        if owner is None:
            return
        is_write = id(node) in marks or (
            isinstance(stmt, ast.AugAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == node.id
        )
        self.analysis.global_accesses.append(GlobalAccess(
            root=self.root, fn=self.fn, node=node, module=owner, var=var,
            is_write=is_write, must=frozenset(must),
        ))

    # -- call handling --

    def _blocking_reason(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.fn.module.source.imports.resolve(func.id) or ""
            simple = resolved.rsplit(".", 1)[-1] if resolved else func.id
            if simple in _BLOCKING_NAMES:
                return f"{simple}()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        if pool_dispatch(call) is not None:
            return f"pool .{func.attr}()"
        if func.attr in ("join", "result") and not call.args:
            return f".{func.attr}()"
        if func.attr in _BLOCKING_ATTRS:
            return f".{func.attr}()"
        return None

    def _resolve_call(
        self, call: ast.Call
    ) -> List[Tuple[FunctionInfo, Optional[ClassInfo]]]:
        """Precise resolution: exact names, self/super, typed receivers.

        Never falls back to every same-named method — a race checker
        must not conjure sharing through edges that cannot execute.
        """
        site = _classify(call)
        if site is None:
            return []
        program, fn, binding = self.program, self.fn, self.binding
        if site.kind in ("self", "super"):
            return resolve_targets(program, site, fn, binding)
        if site.kind == "name":
            module = fn.module
            resolved = module.source.imports.resolve(site.name) or site.name
            dotted = module.resolve_relative(resolved)
            local = module.functions.get(site.name)
            if local is not None:
                return [(local, None)]
            found = program.functions.get(dotted)
            if found is not None:
                return [(found, found.owner)]
            cls = program.resolve_class(dotted, module)
            if cls is not None:
                init = program.resolve_method(cls, "__init__")
                return [(init, cls)] if init else []
            return []
        # attr: exact dotted resolution, else the receiver's static type
        func = call.func
        assert isinstance(func, ast.Attribute)
        if site.chain is not None:
            module = fn.module
            resolved = module.source.imports.resolve(".".join(site.chain))
            dotted = module.resolve_relative(
                resolved or ".".join(site.chain)
            )
            found = program.functions.get(dotted)
            if found is not None:
                return [(found, found.owner)]
        base = self.expr_type(func.value, self.env)
        if base is not None and base[0] == "obj":
            cls = self.types.scope_classes.get(base[1])
            if cls is not None:
                target = program.resolve_method(cls, site.name)
                if target is not None:
                    return [(target, cls)]
        return []

    def _call(self, call: ast.Call, must: Set[str], may: Set[str]) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            lock = self.lock_at(func.value)
            if lock is not None:
                if func.attr == "acquire":
                    for held in sorted(may):
                        if held != lock.lock_id:
                            self.analysis.record_edge(
                                held, lock.lock_id, self.fn.module.path,
                                call, self.fn.qualname,
                            )
                    must.add(lock.lock_id)
                    may.add(lock.lock_id)
                    return
                if func.attr == "release":
                    must.discard(lock.lock_id)
                    may.discard(lock.lock_id)
                    return
                if func.attr in ("wait", "wait_for", "notify", "notify_all"):
                    if self.collect:
                        self.analysis.sync_ops.append(SyncOp(
                            root=self.root, fn=self.fn, node=call,
                            lock=lock, kind=func.attr,
                            must=frozenset(must), may=frozenset(may),
                            in_while=self.while_depth > 0,
                        ))
                    return
        if self.collect and may:
            reason = self._blocking_reason(call)
            if reason is not None:
                self.analysis.blocking_calls.append(BlockingCall(
                    root=self.root, fn=self.fn, node=call, reason=reason,
                    may=frozenset(may),
                ))
        targets = self._resolve_call(call)
        if self.flow is not None:
            for target, tbinding in targets:
                self.flow(target, tbinding, frozenset(must), frozenset(may))
            # a bound method handed over as a callable (``sorted(key=
            # self._service_key)``, ``on_cell=self._on_cell``) is
            # modelled as invoked here, under the call site's locksets;
            # ``Thread(target=...)`` is excluded — the target is its
            # own thread root and starts lock-free
            if self.analysis._thread_target(call, self.fn) is None:
                for arg in list(call.args) + [
                    kw.value for kw in call.keywords
                ]:
                    callback = self._callback_target(arg)
                    if callback is not None:
                        self.flow(
                            callback[0], callback[1],
                            frozenset(must), frozenset(may),
                        )

    def _callback_target(
        self, arg: ast.expr
    ) -> Optional[Tuple[FunctionInfo, Optional[ClassInfo]]]:
        if isinstance(arg, ast.Attribute) and isinstance(
            arg.value, ast.Name
        ) and arg.value.id == "self":
            cls = self.binding or self.fn.owner
            if cls is not None:
                target = self.program.resolve_method(cls, arg.attr)
                if target is not None:
                    return target, cls
        elif isinstance(arg, ast.Name):
            target = self.fn.module.functions.get(arg.id)
            if target is not None:
                return target, None
        return None
