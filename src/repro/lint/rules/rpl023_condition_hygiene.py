"""RPL023 — condition hygiene: wait in a while-loop, notify under lock.

``threading.Condition`` has two sharp edges the serving stack must
respect. First, wakeups are advisory: ``notify_all`` wakes every
waiter, spurious wakeups exist, and by the time a waiter reacquires
the lock another thread may have consumed whatever it was woken for.
A ``cond.wait()`` guarded by ``if`` instead of ``while`` acts on a
predicate that may already be false again — jobs double-taken from the
queue, waits returning before the job is done. Second, calling
``wait``/``notify``/``notify_all`` without holding the lock raises
``RuntimeError`` at runtime — but only on the path that reaches it,
which for shutdown-only code can be long after the bug merges.

The discipline::

    with self.cond:
        while not predicate():   # re-check after every wakeup
            self.cond.wait()
        consume()

``wait_for(pred)`` loops internally and is exempt from the while
requirement, but still needs the lock held.

Positive (flagged)::

    with self.cond:
        if len(self.queue) == 0:   # 'if': one wakeup, no re-check
            self.cond.wait()
        job = self.queue.take()    # may be None after a steal

Negative (clean)::

    with self.cond:
        while len(self.queue) == 0:
            self.cond.wait()
        job = self.queue.take()
"""

from __future__ import annotations

from typing import Iterator

from ..concurrency import ConcurrencyAnalysis
from ..program import Program
from .base import Rule, Violation

__all__ = ["ConditionHygieneRule"]


class ConditionHygieneRule(Rule):
    """Flag waits outside predicate loops and notifies without the lock."""

    code = "RPL023"
    name = "condition-hygiene"
    rationale = (
        "cond.wait() must re-check its predicate in a while loop "
        "(wakeups are advisory) and wait/notify require the lock held"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        analysis = ConcurrencyAnalysis.of(program)
        seen = set()
        for op in analysis.sync_ops:
            path = op.fn.module.path
            key = (
                path,
                getattr(op.node, "lineno", 1),
                getattr(op.node, "col_offset", 0),
                op.kind,
            )
            if key in seen:
                continue  # one site, several thread roots
            seen.add(key)
            if op.lock.kind != "Condition":
                continue
            if op.lock.lock_id not in op.must:
                yield self.violation(
                    path,
                    op.node,
                    f"{op.lock.display}.{op.kind}() without "
                    f"'{op.lock.lock_id}' held (thread root "
                    f"'{op.root.name}') raises RuntimeError at runtime; "
                    f"wrap the call in 'with {op.lock.display}:'",
                )
                continue
            if op.kind == "wait" and not op.in_while:
                yield self.violation(
                    path,
                    op.node,
                    f"{op.lock.display}.wait() outside a while-predicate "
                    f"loop: wakeups are advisory and the predicate may "
                    f"be false again on return — use 'while not "
                    f"predicate: {op.lock.display}.wait()' or wait_for()",
                )
