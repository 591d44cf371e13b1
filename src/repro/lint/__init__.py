"""repro.lint — domain-aware static analysis for the simulation's contracts.

The paper's conclusions only hold if every engine faithfully executes
its computation model; in this codebase that faithfulness is a set of
code contracts (all time flows through ``cluster.advance``, supersteps
are pure over the ``Graph``, randomness is seeded, only
:class:`SimulatedFailure` signals run failure, engines charge only the
cluster primitives their model allows, ...). This package
machine-checks those contracts with an AST-based analyzer built on the
stdlib ``ast`` module — no third-party dependencies.

Usage::

    python -m repro.lint src/              # lint a tree, exit 1 on findings
    python -m repro.lint --format json src # machine-readable report
    repro lint                             # same, via the main CLI

One run reads and parses each file once, builds one
:class:`~repro.lint.program.Program` (module table, static MROs, call
graph) and checks every rule against it: RPL001..RPL010 look at one
file at a time, RPL011..RPL024 follow calls and state across files.
Each rule has a stable code; a finding on a line is suppressed by a
trailing ``# noqa: RPLxxx`` comment (bare ``# noqa`` suppresses every
code on that line), and ``lint-baseline.json`` can record findings CI
should tolerate (see :mod:`repro.lint.baseline`).
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

from .program import Program, build_program
from .rules import RULES, RULES_BY_CODE, Rule, Violation
from .source import PARSE_ERROR_CODE, SourceModule, read_source

__all__ = [
    "RULES",
    "RULES_BY_CODE",
    "Rule",
    "Violation",
    "Program",
    "SourceModule",
    "lint",
    "iter_python_files",
    "select_rules",
    "expand_selectors",
    "PARSE_ERROR_CODE",
]


def select_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Resolve a list of rule codes into rule instances (all by default)."""
    if select is None:
        return list(RULES)
    rules = []
    for code in select:
        code = code.strip().upper()
        if code not in RULES_BY_CODE:
            raise KeyError(
                f"unknown rule code {code!r}; expected one of "
                f"{sorted(RULES_BY_CODE)}"
            )
        rules.append(RULES_BY_CODE[code])
    return rules


def expand_selectors(
    selectors: Iterable[str], codes: Iterable[str]
) -> List[str]:
    """Resolve ``--select``/``--ignore`` selectors against known codes.

    Two forms, checked in order:

    * **exact** — a selector that *is* a known code selects only that
      code: ``RPL016`` selects RPL016 alone, never anything it happens
      to prefix;
    * **prefix** — anything else matches ruff-style by prefix:
      ``RPL01`` selects every RPL01x rule (RPL010 to RPL019), ``RPL``
      selects everything.

    Returns the sorted matching subset of ``codes``; raises KeyError for
    a selector that matches nothing (the CLI turns that into exit 2).
    """
    available = sorted(set(codes))
    matched = set()
    for selector in selectors:
        prefix = selector.strip().upper()
        if not prefix:
            continue
        if prefix in available:
            matched.add(prefix)
            continue
        hits = [code for code in available if code.startswith(prefix)]
        if not hits:
            raise KeyError(
                f"no rule code matches selector {prefix!r}; available: "
                f"{available}"
            )
        matched.update(hits)
    return sorted(matched)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        else:
            found.append(path)
    return found


def lint(
    paths: Sequence[str], rules: Optional[Sequence[Rule]] = None
) -> List[Violation]:
    """Lint every Python file under ``paths`` (files or directories).

    Each file is read and parsed once — one that cannot be decoded or
    parsed becomes an RPL000 finding and stays out of the program —
    the parsed files form one :class:`Program`, and every rule in
    ``rules`` (all of them by default) checks it. Returns the findings
    not covered by a ``# noqa`` on their line, deduplicated and sorted.
    """
    sources: List[SourceModule] = []
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        parsed = read_source(path)
        if isinstance(parsed, Violation):
            violations.append(parsed)
        else:
            sources.append(parsed)
    program = build_program(sources)
    by_path = {source.path: source for source in sources}
    for rule in RULES if rules is None else rules:
        for violation in rule.check(program):
            source = by_path.get(violation.path)
            if source is None or not source.suppressed(
                violation.code, violation.line
            ):
                violations.append(violation)
    return sorted(
        set(violations),
        key=lambda v: (v.path, v.line, v.col, v.code, v.message),
    )
