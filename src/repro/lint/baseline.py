"""Finding baseline: pre-existing findings fail CI only when new ones appear.

A baseline entry is a *fingerprint* — ``(code, path, message)`` with the
line number deliberately excluded, so unrelated edits that shift a known
finding up or down a file do not resurrect it. Paths are normalized to
forward slashes so a baseline recorded on one platform filters on
another. The committed ``lint-baseline.json`` at the repo root is empty:
the tree lints clean, and the file exists so CI has a stable contract
to check against (and so a future emergency has an escape hatch:
``repro lint --baseline lint-baseline.json --update-baseline``).
"""

from __future__ import annotations

import json
from typing import List, Sequence

from .source import Violation

__all__ = ["fingerprint", "load_baseline", "write_baseline", "filter_baselined"]

_VERSION = 1


def fingerprint(violation: Violation) -> List[str]:
    return [
        violation.code,
        violation.path.replace("\\", "/"),
        violation.message,
    ]


def load_baseline(path: str) -> List[List[str]]:
    """Fingerprints from a baseline file; [] when absent or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return []
    if not isinstance(payload, dict) or payload.get("version") != _VERSION:
        return []
    entries = payload.get("fingerprints", [])
    return [list(map(str, entry)) for entry in entries if len(entry) == 3]


def write_baseline(path: str, violations: Sequence[Violation]) -> int:
    """Record every current finding; returns how many were written."""
    prints = sorted({tuple(fingerprint(v)) for v in violations})
    payload = {
        "version": _VERSION,
        "fingerprints": [list(p) for p in prints],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(prints)


def filter_baselined(
    violations: Sequence[Violation], baseline: Sequence[Sequence[str]]
) -> List[Violation]:
    known = {tuple(entry) for entry in baseline}
    return [v for v in violations if tuple(fingerprint(v)) not in known]
