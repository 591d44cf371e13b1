"""RPL024 — thread confinement: cross-thread state needs a common lock.

RPL019 bans module-level mutable state across *process* boundaries,
where writes silently vanish. Threads are more dangerous in the
opposite way: writes *are* visible, torn and half-applied, the moment
another thread looks. This rule generalizes the check to threads: any
module-level dict/list/set in a serve/exec module — or any instance
field of a serve/exec class — that one thread root writes and another
reads with *no* lock in common at any access is unsynchronized shared
state. Unlike RPL021 (which fires on an *inconsistent* discipline,
guarded somewhere and bare elsewhere), RPL024 fires when there is no
discipline at all: nobody ever holds a lock, so nothing ever
serializes the two threads.

State confined to one thread root passes: a scheduler-private memo, a
handler-local buffer, anything only the main thread touches. So does
state guarded everywhere (RPL021's domain once any access is guarded).

Positive (flagged)::

    _LAST_SEEN = {}                       # module global

    def _loop(self):                      # scheduler thread
        _LAST_SEEN[job.id] = now          # bare write

    def _op_ping(self, message):          # handler thread
        return {"seen": len(_LAST_SEEN)}  # bare read, no common lock

Negative (clean)::

    def _loop(self):
        with self.cond:
            self._last_seen[job.id] = now

    def _op_ping(self, message):
        with self.cond:
            return {"seen": len(self._last_seen)}
"""

from __future__ import annotations

from typing import Iterator

from ..concurrency import ConcurrencyAnalysis, field_groups, global_groups
from ..program import Program
from .base import Rule, Violation

__all__ = ["ThreadConfinementRule"]


class ThreadConfinementRule(Rule):
    """Flag cross-thread mutable state with no lock in common."""

    code = "RPL024"
    name = "thread-confinement"
    rationale = (
        "mutable state written by one thread and read by another with "
        "no common lock is unsynchronized; confine it to one thread or "
        "guard every access with the same lock"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        analysis = ConcurrencyAnalysis.of(program)
        for group in global_groups(analysis):
            if not group.writes or not group.concurrent:
                continue
            if any(a.must for a in group.accesses):
                continue  # partially guarded: RPL021-shaped, not bare
            module, var = group.key
            witness = group.writes[0]
            yield self.violation(
                witness.fn.module.path,
                witness.node,
                f"module global '{var}' ({module}) is written on thread "
                f"root '{witness.root.name}' and reached from "
                f"{', '.join(group.thread_ids)} with no lock ever held; "
                f"confine it to one thread or guard every access",
            )
        for group in field_groups(analysis):
            if not group.writes or not group.concurrent:
                continue
            if any(a.must for a in group.accesses):
                continue  # some access guarded -> RPL021 territory
            cls, attr = group.key
            if not self._mutable_field(analysis, cls, attr):
                continue
            witness = group.writes[0]
            yield self.violation(
                witness.fn.module.path,
                witness.node,
                f"'{cls.rsplit('.', 1)[-1]}.{attr}' is mutable state "
                f"written on thread root '{witness.root.name}' and "
                f"reached from {', '.join(group.thread_ids)} with no "
                f"lock ever held; confine it to one thread or guard "
                f"every access",
            )

    @staticmethod
    def _mutable_field(
        analysis: ConcurrencyAnalysis, cls: str, attr: str
    ) -> bool:
        """Only container-typed fields: a scalar read is one bytecode op.

        Restricting the no-lock-anywhere case to containers keeps this
        rule about *torn* state (mid-resize dict reads, list append vs
        iterate) rather than benign monotonic flags, which RPL021
        already covers as soon as any path guards them.
        """
        ftype = analysis.types.field_type(cls, attr)
        return ftype is not None and ftype[0] == "elem"
