"""RPL011 — model conformance: engines stay inside their computation model.

The paper's cross-system comparison (Section 3) is only meaningful if
each engine faithfully executes its declared model: a vertex-centric BSP
engine communicates through synchronized shuffles, MapReduce routes all
communication through shuffle + HDFS, the single-thread baseline touches
no distributed primitive at all. Pollard & Norris (arXiv:1704.02003)
document how "same algorithm" implementations silently diverge; here the
divergence would be an engine quietly charging a primitive its real
counterpart cannot perform — and every cost grid built on it.

Each concrete engine declares ``model_primitives`` (a frozenset of
:data:`~repro.lint.callgraph.PRIMITIVES` names); this rule verifies
(a) the declaration exists and is statically parseable, (b) it is a
subset of what ``MODEL_PRIMITIVES[trace_model]`` allows the engine's
computation model, and (c) every cluster-primitive call site reachable
from that engine's ``run`` is declared. Reachability skips the chaos/
recovery machinery (priced by its own contracts, RPL010/RPL014) and the
``cluster`` package itself (it *implements* the primitives).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..callgraph import call_sites
from ..program import FunctionInfo, Program
from ..reachability import engine_cone
from .base import (
    Rule,
    Violation,
    concrete_engines,
    model_primitive_table,
    parse_primitive_set,
)

__all__ = ["ModelConformanceRule"]


def _sites_in_cone(
    program: Program, cone
) -> List[Tuple[FunctionInfo, str, object]]:
    """(function, primitive, call node) for every primitive site reached."""
    sites = []
    seen_functions = set()
    for fn, _binding in cone:
        if fn.qualname in seen_functions:
            continue
        seen_functions.add(fn.qualname)
        parts = fn.module.name_parts
        if "cluster" in parts or "chaos" in parts:
            continue
        for site in call_sites(fn):
            if site.primitive is not None:
                sites.append((fn, site.primitive, site.node))
    sites.sort(key=lambda s: (s[0].module.path, s[2].lineno, s[2].col_offset))
    return sites


class ModelConformanceRule(Rule):
    """Every primitive reachable from Engine.run is allowed by its model."""

    code = "RPL011"
    name = "model-conformance"
    rationale = (
        "each engine must stay inside its computation model's cluster "
        "primitives (BSP shuffles, MapReduce HDFS round-trips, ...) or "
        "the paper's cross-system cost comparison is meaningless"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        table = model_primitive_table(program)
        emitted = set()
        for engine in concrete_engines(program):
            model_attr = program.resolve_class_attr(engine, "trace_model")
            model = None
            if model_attr is not None:
                node = model_attr[1]
                value = getattr(node, "value", None)
                if isinstance(value, str):
                    model = value
            if model is None or model not in table:
                yield self.violation(
                    engine.module.path,
                    engine.node,
                    f"engine {engine.name} has no statically known "
                    f"trace_model (expected one of "
                    f"{sorted(table)})",
                )
                continue
            declared_attr = program.resolve_class_attr(
                engine, "model_primitives"
            )
            declared = (
                parse_primitive_set(declared_attr[1])
                if declared_attr is not None
                else None
            )
            if declared is None:
                yield self.violation(
                    engine.module.path,
                    engine.node,
                    f"engine {engine.name} must declare model_primitives "
                    f"as a frozenset of cluster primitive names — the "
                    f"contract RPL011 checks its call graph against",
                )
                continue
            allowed = table[model]
            overreach = sorted(declared - allowed)
            if overreach:
                yield self.violation(
                    engine.module.path,
                    engine.node,
                    f"engine {engine.name} declares primitives its "
                    f"{model!r} model does not allow: "
                    f"{', '.join(overreach)}",
                )
            cone = engine_cone(program, engine, skip_chaos=True)
            for fn, primitive, call in _sites_in_cone(program, cone):
                if primitive in declared:
                    continue
                key = (fn.module.path, call.lineno, call.col_offset, engine.qualname)
                if key in emitted:
                    continue
                emitted.add(key)
                yield self.violation(
                    fn.module.path,
                    call,
                    f"cluster.{primitive}() reachable from "
                    f"{engine.name}.run (via {fn.qualname}) is outside "
                    f"the engine's declared {model!r} primitives",
                )
