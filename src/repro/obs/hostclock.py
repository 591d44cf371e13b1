"""The one sanctioned door to the host's wall clock.

Everything the simulation reports is simulated time — RPL001 bans the
wall-clock API across the source tree so a stray ``time.time()`` can
never leak host seconds into paper-scale results. But profiling the
*simulator itself* (how long does a grid take to run, which engine's
cost model is the Python hot spot) legitimately needs real time. That
capability lives here, and only here: RPL001's allowlist names exactly
this module, so any other wall-clock read still fails the lint.

Host readings must never flow back into simulated quantities; they are
for meta-level reporting (progress lines, profiling harnesses) only.
"""

from __future__ import annotations

import time

__all__ = ["host_now", "host_sleep"]


def host_now() -> float:
    """Monotonic host seconds (``time.perf_counter``): profiling only."""
    return time.perf_counter()


def host_sleep(seconds: float) -> None:
    """Block this process for host ``seconds`` (``time.sleep``).

    For harness-level pacing only — the executor's retry backoff waits
    here between re-attempts of a crashed worker. Nothing simulated may
    ever depend on it.
    """
    if seconds > 0:
        time.sleep(seconds)

