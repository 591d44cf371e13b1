"""RPL021 — guarded-field discipline: one field, one lock, every thread.

The serving stack shares its job registry, queue, and stats between
socketserver handler threads, the scheduler thread, and the main
thread, all serialized by one ``threading.Condition``. Eraser's
insight applies directly: for each shared field, the *candidate lock
set* is the intersection of the locks held across all its accesses.
If some accesses hold the daemon's condition and others hold nothing,
the intersection is empty and the unguarded side is a data race — a
handler can observe a half-updated job, or the journal can read stats
mid-update.

The discipline: any mutable instance field of a serve/exec class that
is written and reached from two different thread roots (or from a
self-concurrent root like a handler pool) must be accessed under one
common lock everywhere — or under no lock anywhere, in which case
RPL024 judges whether the sharing itself is sound. RPL021 fires
precisely when the discipline is *inconsistent*: guarded on one path,
bare on another.

Positive (flagged)::

    def _loop(self):                # scheduler thread
        self.jobs_done += 1         # no lock held

    def status(self):               # handler thread
        with self.cond:
            return self.jobs_done   # guarded here, bare above -> race

Negative (clean)::

    def _loop(self):
        with self.cond:
            self.jobs_done += 1

    def status(self):
        with self.cond:
            return self.jobs_done   # every access holds self.cond

Accesses inside ``__init__``/``__post_init__`` are exempt — the object
is not yet published to other threads.
"""

from __future__ import annotations

from typing import Iterator

from ..concurrency import ConcurrencyAnalysis, field_groups
from ..program import Program
from .base import Rule, Violation

__all__ = ["GuardedFieldRule"]


class GuardedFieldRule(Rule):
    """Flag fields guarded on one thread root but bare on another."""

    code = "RPL021"
    name = "guarded-field-discipline"
    rationale = (
        "a shared field locked on one thread but accessed bare on "
        "another is a data race; hold the same lock at every access"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        analysis = ConcurrencyAnalysis.of(program)
        for group in field_groups(analysis):
            if not group.writes or not group.concurrent:
                continue
            if group.candidate_locks:
                continue  # one lock covers every access
            guarded = [a for a in group.accesses if a.must]
            bare = [a for a in group.accesses if not a.must]
            if not guarded or not bare:
                continue  # consistently bare: RPL024's judgement call
            witness = next((a for a in bare if a.is_write), bare[0])
            shield = sorted(guarded[0].must)[0]
            cls, attr = group.key
            yield self.violation(
                witness.fn.module.path,
                witness.node,
                f"'{cls.rsplit('.', 1)[-1]}.{attr}' is accessed without "
                f"a lock on thread root '{witness.root.name}' but under "
                f"'{shield}' elsewhere (e.g. {guarded[0].fn.qualname}); "
                f"threads {', '.join(group.thread_ids)} race on it — "
                f"hold the same lock at every access or snapshot the "
                f"value under the lock first",
            )

