"""RPL022 — no blocking under a lock, and the lock graph stays acyclic.

A critical section is a promise to be quick: every handler thread that
wants the daemon's condition queues up behind it. Blocking while the
lock is held — socket send/recv, ``host_sleep``, file/journal I/O,
``pool.submit``/``future.result()``, ``Thread.join`` — turns one slow
client or one slow disk into a stall of the whole serving stack, and a
``join`` on a thread that itself needs the lock is a textbook
deadlock. Separately, if thread A acquires lock X then Y while thread
B acquires Y then X, both can park forever; the lock-acquisition graph
across all thread roots must be acyclic.

The discipline: render, serialize, and write *outside* the critical
section; take the lock only to read or publish shared state
(snapshot-then-release). ``cond.wait()`` is exempt with respect to its
own lock — waiting releases it — but waiting while *another* lock is
still held wedges everyone who needs that other lock.

Positive (flagged)::

    def _finish(self):
        with self.cond:
            self._stopping = True
            self._scheduler.join()   # join under the lock: deadlock bait

Negative (clean)::

    def _finish(self):
        with self.cond:
            self._stopping = True
            self.cond.notify_all()
        self._scheduler.join()       # blocking happens lock-free
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from ..concurrency import ConcurrencyAnalysis
from ..program import Program
from .base import Rule, Violation

__all__ = ["BlockingUnderLockRule"]


def _lock_cycles(
    edges: Dict[Tuple[str, str], Tuple[str, ast.AST, str]],
) -> List[List[str]]:
    """Deterministic list of lock-order cycles (each as a lock-id path)."""
    graph: Dict[str, List[str]] = {}
    for held, acquired in sorted(edges):
        if held != acquired:  # re-entry on one lock is not an order issue
            graph.setdefault(held, []).append(acquired)
    cycles: List[List[str]] = []
    seen_cycles: Set[Tuple[str, ...]] = set()

    def visit(node: str, stack: List[str], on_stack: Set[str]) -> None:
        for succ in graph.get(node, ()):
            if succ in on_stack:
                cycle = stack[stack.index(succ):] + [succ]
                key = tuple(sorted(cycle[:-1]))
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(cycle)
                continue
            stack.append(succ)
            on_stack.add(succ)
            visit(succ, stack, on_stack)
            on_stack.discard(succ)
            stack.pop()

    for start in sorted(graph):
        visit(start, [start], {start})
    return cycles


class BlockingUnderLockRule(Rule):
    """Flag blocking calls under a held lock and cyclic lock orders."""

    code = "RPL022"
    name = "blocking-under-lock"
    rationale = (
        "I/O, sleeps, joins, and pool waits under a lock stall every "
        "thread queued on it; blocking belongs outside the critical "
        "section and lock acquisition order must be acyclic"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        analysis = ConcurrencyAnalysis.of(program)
        seen: Set[Tuple[str, int, int, str]] = set()
        for call in analysis.blocking_calls:
            path = call.fn.module.path
            key = (
                path,
                getattr(call.node, "lineno", 1),
                getattr(call.node, "col_offset", 0),
                call.reason,
            )
            if key in seen:
                continue  # same site reached from several thread roots
            seen.add(key)
            held = ", ".join(f"'{lock}'" for lock in sorted(call.may))
            yield self.violation(
                path,
                call.node,
                f"blocking call {call.reason} may run while {held} is "
                f"held (thread root '{call.root.name}'); threads queued "
                f"on the lock stall behind it — snapshot under the lock, "
                f"release, then block",
            )
        for op in analysis.sync_ops:
            if op.kind not in ("wait", "wait_for"):
                continue
            others = sorted(op.may - {op.lock.lock_id})
            if not others:
                continue
            key = (
                op.fn.module.path,
                getattr(op.node, "lineno", 1),
                getattr(op.node, "col_offset", 0),
                f"wait+{others[0]}",
            )
            if key in seen:
                continue
            seen.add(key)
            yield self.violation(
                op.fn.module.path,
                op.node,
                f"{op.lock.display}.{op.kind}() releases only its own "
                f"lock but {', '.join(repr(o) for o in others)} may "
                f"still be held while parked — every thread needing "
                f"that lock deadlocks until the wait returns",
            )
        for cycle in _lock_cycles(analysis.order_edges):
            first = analysis.order_edges[(cycle[0], cycle[1])]
            yield self.violation(
                first[0],
                first[1],
                f"lock-order cycle {' -> '.join(cycle)}: two threads "
                f"taking these locks in opposite orders can deadlock; "
                f"impose one global acquisition order",
            )
