"""Layer tracing from outside the program: wrappers at layer boundaries.

:class:`LayerTracer` replaces the public entry points of each layer of
``repro`` with thin timing wrappers, records one span per call (layer,
name, start, end, parent span) in memory, and puts every original back
on :meth:`uninstall`. A layer's self time is the sum of its spans'
durations minus the parts covered by their child spans, so nested calls
(an engine calling the partitioner, the partitioner calling itself) are
never counted twice.

Wrapping happens at layer boundaries only: the per-phase tracker record
methods run ~100k times per grid and are counted from the trackers'
sample lists after each engine run instead of being wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from common import now

#: every layer the per-layer metrics name, in pipeline order
LAYERS = (
    "datasets", "exec", "cache", "serialize", "engines", "partitioning",
    "cluster", "workloads", "obs",
)

#: modules whose import registers every class the targets below reach
_IMPORTS = (
    "repro.core.runner", "repro.engines", "repro.exec", "repro.exec.executor",
    "repro.exec.workers", "repro.obs", "repro.obs.cost", "repro.partitioning",
    "repro.serve", "repro.workloads",
)

#: module-level functions: (layer, module, attribute)
_FUNCTIONS = (
    ("datasets", "repro.datasets.registry", "load_dataset"),
    ("cache", "repro.exec.cache", "cell_key"),
    ("serialize", "repro.exec.serialize", "result_to_payload"),
    ("serialize", "repro.exec.serialize", "payload_to_result"),
    ("obs", "repro.obs.journal", "build_journal"),
    ("obs", "repro.obs.cost", "cost_report_from_events"),
    ("obs", "repro.obs.cost", "cost_event_from_events"),
    ("obs", "repro.obs.cost", "aggregate_costs"),
)

#: methods: (layer, module, class, attribute)
_METHODS = (
    ("exec", "repro.exec.executor", "_GridRun", "plan"),
    ("cache", "repro.exec.cache", "ResultCache", "get"),
    ("cache", "repro.exec.cache", "ResultCache", "put"),
    ("obs", "repro.obs.journal", "Journal", "dumps"),
    ("obs", "repro.obs.journal", "Journal", "loads"),
    ("obs", "repro.obs.observation", "RunObservation", "journal"),
    ("obs", "repro.obs.cost", "CostReport", "from_event"),
    ("obs", "repro.exec.serialize", "FrozenJournalObservation", "journal"),
    ("cluster", "repro.cluster.cluster", "Cluster", "__init__"),
)

#: classes whose every public method is a layer entry point
_CLASS_LAYERS = (
    ("cluster", "repro.cluster.cluster", "Cluster"),
    ("partitioning", "repro.partitioning.vertex_cut", "EdgePartition"),
    ("partitioning", "repro.partitioning.edge_cut", "VertexPartition"),
    ("partitioning", "repro.partitioning.voronoi", "BlockPartition"),
)

#: (layer, root class, method): wrapped on the root and every subclass
#: that defines its own
_HIERARCHIES = (
    ("engines", "repro.engines.base", "Engine", "run"),
    ("workloads", "repro.workloads.base", "Workload", "superstep"),
)


def _subclasses(cls: type) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class LayerTracer:
    """Spans and counters per layer, recorded by reversible wrappers."""

    def __init__(self) -> None:
        #: [layer, name, start, end, parent record] per call, call order
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._local = threading.local()
        #: (owner, attribute, original object) for every patch made
        self._patches: List[Tuple[object, str, object]] = []
        self.installed = False

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        spans, stack_of = self.spans, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            record = [layer, name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(record)
            stack.append(record)
            record[2] = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = now()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def reset(self) -> None:
        """Forget recorded spans and counters (the wrappers stay)."""
        self.spans.clear()
        self.counts.clear()
        self._local.trackers = []

    # -- counters hooked onto wrapped calls -----------------------------

    def _after_encode(self, args, out) -> None:
        answer = out.get("answer") or {}
        self.counts["serialize.payload_bytes"] += (
            len(out.get("journal") or "") + len(answer.get("data", ""))
        )

    def _after_dumps(self, args, out) -> None:
        self.counts["obs.journal_bytes"] += len(out)

    def _after_loads(self, args, out) -> None:
        self.counts["obs.journal_bytes"] += len(args[1])  # (cls, text)

    def _after_engine_run(self, args, out) -> None:
        self.counts["engines.supersteps"] += out.iterations
        self.counts["engines.sim_failures"] += out.failure is not None
        trackers = getattr(self._local, "trackers", None) or []
        for tracker in trackers:
            self.counts["cluster.tracker_records"] += (
                len(tracker.cpu_samples) + len(tracker.memory_samples)
            )
        self._local.trackers = []

    _AFTER = {
        ("repro.exec.serialize", "result_to_payload"): "_after_encode",
        ("repro.obs.journal", "dumps"): "_after_dumps",
        ("repro.obs.journal", "loads"): "_after_loads",
        ("repro.engines.base", "run"): "_after_engine_run",
    }

    # -- patching -------------------------------------------------------

    def _patch_method(self, layer: str, cls: type, attr: str,
                      after: Optional[Callable] = None) -> None:
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(layer, name, raw.__func__, after))
        elif inspect.isfunction(raw):
            replacement = self._wrap(layer, name, raw, after)
        else:
            return  # properties and static helpers are not entry points
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, raw))

    def _patch_function(self, layer: str, module: str, attr: str,
                        after: Optional[Callable] = None) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrap(layer, attr, original, after)
        # rebind every ``from ... import name`` copy across the package
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def _hook(self, key: Tuple[str, str]) -> Optional[Callable]:
        name = self._AFTER.get(key)
        return getattr(self, name) if name else None

    def install(self) -> "LayerTracer":
        """Wrap every layer entry point; safe to call once."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module in _IMPORTS:
            importlib.import_module(module)
        for layer, module, attr in _FUNCTIONS:
            if not hasattr(sys.modules[module], attr):
                self.missing.append(f"{module}.{attr}")
                continue
            self._patch_function(layer, module, attr, self._hook((module, attr)))
        for layer, module, cls_name, attr in _METHODS:
            cls = getattr(sys.modules[module], cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            self._patch_method(layer, cls, attr, self._hook((module, attr)))
        for layer, module, cls_name in _CLASS_LAYERS:
            cls = getattr(sys.modules[module], cls_name, None)
            if cls is None:
                self.missing.append(f"{module}.{cls_name}")
                continue
            for attr in list(cls.__dict__):
                if not attr.startswith("_"):
                    self._patch_method(layer, cls, attr)
        for layer, module, cls_name, attr in _HIERARCHIES:
            root = getattr(sys.modules[module], cls_name, None)
            if root is None:
                self.missing.append(f"{module}.{cls_name}")
                continue
            for cls in _subclasses(root):
                if attr in cls.__dict__:
                    self._patch_method(layer, cls, attr, self._hook((module, attr)))
        self._patch_tracker()
        # the layer functions themselves: the partitioner entry points
        import repro.partitioning as partitioning

        for attr in partitioning.__all__:
            value = getattr(partitioning, attr)
            if inspect.isfunction(value):
                self._patch_function("partitioning", value.__module__, attr)
        if self.missing:
            print(f"perfbench: trace targets not found: {self.missing}",
                  file=sys.stderr)
        self.installed = True
        return self

    def _patch_tracker(self) -> None:
        """Note each ResourceTracker built, to count its records later."""
        from repro.cluster.tracker import ResourceTracker

        original = ResourceTracker.__dict__["__init__"]
        local = self._local

        def init(tracker, *args, **kwargs):
            original(tracker, *args, **kwargs)
            trackers = getattr(local, "trackers", None)
            if trackers is None:
                trackers = local.trackers = []
            trackers.append(tracker)

        ResourceTracker.__init__ = init  # type: ignore[method-assign]
        self._patches.append((ResourceTracker, "__init__", original))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._local.trackers = []
        self.installed = False

    def patched_targets(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)

    # -- roll-up --------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
        """Per-layer self seconds, per-layer calls, per-entry self seconds."""
        layer_self: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        entry_self: Dict[str, float] = defaultdict(float)
        for layer, name, start, end, parent in self.spans:
            duration = end - start
            layer_self[layer] += duration
            entry_self[f"{layer}:{name}"] += duration
            calls[layer] += 1
            if parent is not None:
                layer_self[parent[0]] -= duration
                entry_self[f"{parent[0]}:{parent[1]}"] -= duration
        return dict(layer_self), dict(calls), dict(entry_self)

    def covered_seconds(self) -> float:
        """Wall seconds inside any top-level span."""
        return sum(end - start for _, _, start, end, parent in self.spans
                   if parent is None)

    def write_spans(self, path: Path) -> None:
        """Dump the recorded spans as JSON lines (index, parent index)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        index = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w", encoding="ascii") as fh:
            for i, (layer, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "p": None if parent is None else index[id(parent)],
                    "layer": layer, "name": name, "start": start, "end": end,
                }, separators=(",", ":")) + "\n")


def profile(tracer: LayerTracer, wall: float, hits: int, misses: int) -> dict:
    """One traced pass or session, rolled up (spans can then be dropped).

    Cache hits and misses come from the caller's own account (executor
    report or daemon stats): the executor skips the lookup entirely
    while the cache directory is empty, so counting ``get`` calls would
    miss those misses.
    """
    layer_self, calls, entry_self = tracer.self_times()
    counts = dict(tracer.counts, **{"cache.hits": hits, "cache.misses": misses})
    return {"self": layer_self, "calls": calls, "entry": entry_self,
            "counts": counts, "wall": wall, "covered": tracer.covered_seconds()}


def layer_metrics(profiles: List[dict]) -> Dict[str, float]:
    """The per-layer metrics shared by every workload, mean per profile.

    Grid profiles are one traced pass each; a serve profile is the whole
    traced daemon session.
    """
    count = max(1, len(profiles))

    def mean(section: str, key: str) -> float:
        return sum(p[section].get(key, 0.0) for p in profiles) / count

    hits, misses = mean("counts", "cache.hits"), mean("counts", "cache.misses")
    wall = sum(p["wall"] for p in profiles)
    return {
        "partitioning.self_s": mean("self", "partitioning"),
        "partitioning.calls": mean("calls", "partitioning"),
        "cluster.self_s": mean("self", "cluster"),
        "cluster.calls": mean("calls", "cluster"),
        "cluster.tracker_records": mean("counts", "cluster.tracker_records"),
        "engines.self_s": mean("self", "engines"),
        "engines.supersteps": mean("counts", "engines.supersteps"),
        "engines.sim_failures": mean("counts", "engines.sim_failures"),
        "workloads.self_s": mean("self", "workloads"),
        "workloads.supersteps": mean("calls", "workloads"),
        "datasets.load_s": mean("self", "datasets"),
        "obs.journal_s": mean("self", "obs"),
        "obs.journal_bytes": mean("counts", "obs.journal_bytes"),
        "serialize.encode_s": mean("entry", "serialize:result_to_payload"),
        "serialize.decode_s": mean("entry", "serialize:payload_to_result"),
        "serialize.payload_bytes": mean("counts", "serialize.payload_bytes"),
        "cache.key_s": mean("entry", "cache:cell_key"),
        "cache.get_s": mean("entry", "cache:ResultCache.get"),
        "cache.put_s": mean("entry", "cache:ResultCache.put"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "exec.plan_s": mean("self", "exec"),
        "trace.attributed_frac": (
            sum(p["covered"] for p in profiles) / wall if wall else 0.0
        ),
    }
