"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit codes follow linter convention: 0 clean, 1 findings, 2 bad usage.
Every run checks all rules, RPL001-RPL024, in one pass over the tree.
``--select`` / ``--ignore`` filter them — an exact code matches only
itself, anything shorter matches ruff-style by prefix —
``--baseline`` suppresses previously recorded findings, and
``--explain RPLxxx`` prints one rule's rationale, the discipline it
enforces, and its minimal positive/negative example.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from . import RULES_BY_CODE, Rule, expand_selectors, iter_python_files, lint
from .baseline import filter_baselined, load_baseline, write_baseline
from .reporters import RENDERERS, render_rule_list

__all__ = ["main", "build_parser", "run_explain", "run_lint"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Domain-aware static analysis for the simulation's model "
            "contracts: one pass over the tree checks every rule, "
            "RPL001-RPL024."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        help=(
            "comma-separated rule codes or prefixes to run; an exact "
            "code (RPL016) selects only itself, a prefix (RPL01) "
            "selects every code it starts (default: all active rules)"
        ),
    )
    parser.add_argument(
        "--ignore",
        help="comma-separated rule codes or prefixes to skip",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "baseline file (lint-baseline.json): recorded findings are "
            "suppressed so CI fails only on new ones"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline with every current finding and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its rationale and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        help=(
            "print one rule's rationale, the discipline it enforces, "
            "and its minimal positive/negative example, then exit "
            "(exit 2 on unknown codes)"
        ),
    )
    return parser


def run_explain(code: str) -> int:
    """Print one rule's full documentation; exit 2 on unknown codes."""
    code = code.strip().upper()
    rule = RULES_BY_CODE.get(code)
    if rule is None:
        known = ", ".join(sorted(RULES_BY_CODE))
        print(
            f"unknown rule code {code!r} — known codes: {known}",
            file=sys.stderr,
        )
        return 2
    lines = [f"{rule.code} — {rule.name}", "", f"rationale: {rule.rationale}"]
    doc = sys.modules[type(rule).__module__].__doc__
    if doc:
        lines += ["", doc.strip()]
    print("\n".join(lines))
    return 0


def _active_rules(select: Optional[str], ignore: Optional[str]) -> List[Rule]:
    """The rules left after --select/--ignore filtering, by code.

    Raises KeyError (exit 2 upstream) for a selector matching nothing.
    """
    active: Dict[str, Rule] = dict(RULES_BY_CODE)
    if select:
        picked = expand_selectors(
            [s for s in select.split(",") if s.strip()], active
        )
        active = {code: active[code] for code in picked}
    if ignore:
        ignored = expand_selectors(
            [s for s in ignore.split(",") if s.strip()], RULES_BY_CODE
        )
        active = {c: r for c, r in active.items() if c not in ignored}
    return [active[code] for code in sorted(active)]


def run_lint(
    paths: List[str],
    fmt: str = "text",
    select: Optional[str] = None,
    list_rules: bool = False,
    ignore: Optional[str] = None,
    baseline: Optional[str] = None,
    update_baseline: bool = False,
    explain: Optional[str] = None,
) -> int:
    """Run the analyzer; prints a report and returns the exit code."""
    if explain:
        return run_explain(explain)
    if list_rules:
        print(render_rule_list())
        return 0
    if update_baseline and not baseline:
        print("--update-baseline requires --baseline FILE", file=sys.stderr)
        return 2
    try:
        rules = _active_rules(select, ignore)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    files = iter_python_files(paths)
    if not files:
        print(f"no Python files under {paths}", file=sys.stderr)
        return 2
    try:
        violations = lint(files, rules)
    except OSError as exc:
        print(f"cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2

    if update_baseline:
        count = write_baseline(baseline, violations)
        print(f"baseline updated: {count} fingerprint(s) -> {baseline}")
        return 0
    if baseline:
        violations = filter_baselined(violations, load_baseline(baseline))

    render = RENDERERS[fmt]
    print(render(violations, files_checked=len(files)))
    return 1 if violations else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_lint(
            paths=args.paths,
            fmt=args.format,
            select=args.select,
            list_rules=args.list_rules,
            ignore=args.ignore,
            baseline=args.baseline,
            update_baseline=args.update_baseline,
            explain=args.explain,
        )
    except BrokenPipeError:
        # report piped into head/less that exited early; not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
