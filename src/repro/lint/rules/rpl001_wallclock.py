"""RPL001 — wall-clock ban: simulated time only.

Every duration the experiments report is *simulated*: it flows through
``cluster.advance`` and is read back via ``cluster.now``. A single
``time.time()`` in a cost model silently mixes host wall-clock into
paper-scale seconds and makes runs irreproducible across machines, so
the whole wall-clock API surface is banned inside the simulation tree.

One door stays open: ``repro/obs/hostclock.py`` wraps the host clock
for profiling the *simulator itself* (how long a run takes to compute,
never a simulated quantity). That module alone is allowlisted; every
other file must route wall-clock needs through it so the exemption
stays auditable in one place.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..program import Program
from ..source import dotted_name
from .base import Rule, Violation

__all__ = ["WallClockRule"]

#: fully qualified callables that read or wait on the host clock
_BANNED = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: the single sanctioned wall-clock module (path suffix match, both
#: separators so Windows checkouts stay covered)
_ALLOWED_SUFFIXES = (
    "repro/obs/hostclock.py",
    "repro\\obs\\hostclock.py",
)


def _is_allowlisted(path: str) -> bool:
    return path.endswith(_ALLOWED_SUFFIXES)


class WallClockRule(Rule):
    """Ban host-clock reads and sleeps; simulated time only."""

    code = "RPL001"
    name = "wall-clock-ban"
    rationale = (
        "all simulated time flows through cluster.advance/cluster.now; "
        "host wall-clock calls make runs irreproducible"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        for module in program.sources:
            if _is_allowlisted(module.path):
                continue
            for node in module.index.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                resolved = module.imports.resolve(dotted_name(node.func))
                if resolved in _BANNED:
                    yield self.violation(
                        module.path,
                        node,
                        f"wall-clock call {resolved}() — use cluster.advance/"
                        f"cluster.now; simulated time only",
                    )
