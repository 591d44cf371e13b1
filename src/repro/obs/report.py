"""Cross-run perf & cost reports and the regression gate.

The analysis surface behind ``repro report``: load any mix of run
journals, grid trace directories (``repro grid --trace``), scheduler
and server journals, and legacy runs-logs; aggregate spans
flamegraph-style (self time per span name per engine); render cost-and-time comparison tables; and *diff* two
inputs with configurable relative thresholds so CI can gate on "did
this PR make anything slower or more expensive".

Everything here is a pure function of the input bytes: loading sorts
directory listings, rendering uses fixed float formats, and diffing
walks keys in first-input order — the same inputs always produce
byte-identical output (the property the CI gate and the tests pin).
Host timing of the program itself is not a report input: the repo
benchmark (``perfbench/``) measures and compares that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .cost import cost_event_from_events
from .export import _self_times
from .journal import Journal

__all__ = [
    "ReportError",
    "RunRow",
    "SchedulerRow",
    "ServerRow",
    "PerfSource",
    "classify_path",
    "load_source",
    "render_report",
    "hot_span_rows",
    "DiffEntry",
    "PerfDiff",
    "diff_sources",
]

KIND_JOURNAL = "journal"
KIND_SCHEDULER = "scheduler-journal"
KIND_SERVER = "server-journal"
KIND_TRACE_DIR = "trace-dir"
KIND_LEGACY_LOG = "legacy-log"

#: the grid-level cost counters the executor folds into _scheduler.jsonl
_SCHEDULER_COST_FIELDS = (
    "dollars", "machine_seconds", "memory_gb_hours", "gb_shuffled",
    "recovery_seconds", "answers",
)


class ReportError(ValueError):
    """An input is not a journal, trace dir or log, or an option is invalid."""


# -- input classification ---------------------------------------------------

def _classify_event(event: dict, source: str) -> str:
    if event.get("type") == "meta":
        if event.get("kind") == "scheduler":
            return KIND_SCHEDULER
        if event.get("kind") == "server":
            return KIND_SERVER
        return KIND_JOURNAL
    if "system" in event and "workload" in event:
        return KIND_LEGACY_LOG
    raise ReportError(
        f"{source}: neither a run, scheduler or server journal nor a "
        f"runs-log"
    )


def classify_path(path: Union[str, Path]) -> str:
    """What kind of input a path is (see the ``KIND_*`` constants)."""
    p = Path(path)
    if p.is_dir():
        return KIND_TRACE_DIR
    try:
        text = p.read_text(encoding="ascii")
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ReportError(f"{path} is not a text input: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        raise ReportError(f"{path} is empty")
    try:
        whole = json.loads(stripped)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict):
        return _classify_event(whole, str(path))
    first_line = stripped.splitlines()[0].strip()
    try:
        first = json.loads(first_line)
    except json.JSONDecodeError as exc:
        raise ReportError(f"{path}:1: not JSON ({exc.msg})") from exc
    if not isinstance(first, dict):
        raise ReportError(f"{path}:1: expected a JSON object per line")
    return _classify_event(first, str(path))


# -- data model -------------------------------------------------------------

@dataclass
class RunRow:
    """One run's report-facing summary (from a journal or a log record)."""

    key: str
    system: str
    workload: str
    dataset: str
    machines: int
    status: str
    total_seconds: float
    iterations: int
    #: the journal's cost event (or one computed on the fly); ``None``
    #: for legacy log records, which carry no journal to bill from
    cost: Optional[dict]
    spans: List[dict] = field(default_factory=list)


@dataclass
class SchedulerRow:
    """One ``_scheduler.jsonl``: cache/retry counters + the grid's bill."""

    cells: int
    cache_hits: int
    executed: int
    retries: int
    jobs: int
    cost: Dict[str, float]


@dataclass
class ServerRow:
    """One ``_server.jsonl``: a serve daemon's lifetime aggregates."""

    jobs: int
    rejected: int
    shed: int
    deadline_expired: int
    cells: int
    cache_hits: int
    executed: int
    evictions: int
    cache_hit_rate: float
    dollars: float
    clients: int
    p50_latency: float
    p99_latency: float
    per_client: Dict[str, Dict[str, float]]


@dataclass
class PerfSource:
    """Everything one input path contributed to the report."""

    label: str
    runs: List[RunRow] = field(default_factory=list)
    schedulers: List[SchedulerRow] = field(default_factory=list)
    servers: List[ServerRow] = field(default_factory=list)


# -- loading ----------------------------------------------------------------

def _run_row_from_journal(journal: Journal) -> RunRow:
    meta = journal.meta
    cost = journal.cost()
    if cost is None:
        # pre-cost journals (older traces) are still priced on the fly
        cost = cost_event_from_events(journal.events)
    return RunRow(
        key="",
        system=str(meta.get("system", "?")),
        workload=str(meta.get("workload", "?")),
        dataset=str(meta.get("dataset", "?")),
        machines=int(meta.get("machines", 0)),  # type: ignore[arg-type]
        status=str(meta.get("status", "?")),
        total_seconds=float(meta.get("total_time", 0.0)),  # type: ignore[arg-type]
        iterations=int(meta.get("iterations", 0)),  # type: ignore[arg-type]
        cost=cost,
        spans=journal.spans(),
    )


def _run_row_from_record(record: dict) -> RunRow:
    total = (
        float(record.get("load_time", 0.0))
        + float(record.get("execute_time", 0.0))
        + float(record.get("save_time", 0.0))
        + float(record.get("overhead_time", 0.0))
    )
    failure = record.get("failure")
    return RunRow(
        key="",
        system=str(record.get("system", "?")),
        workload=str(record.get("workload", "?")),
        dataset=str(record.get("dataset", "?")),
        machines=int(record.get("cluster_size", 0)),
        status=str(failure) if failure else "ok",
        total_seconds=total,
        iterations=int(record.get("iterations", 0)),
        cost=None,
    )


def _scheduler_row(journal: Journal) -> SchedulerRow:
    meta = journal.meta
    return SchedulerRow(
        cells=int(meta.get("cells", 0)),  # type: ignore[arg-type]
        cache_hits=int(meta.get("cache_hits", 0)),  # type: ignore[arg-type]
        executed=int(meta.get("executed", 0)),  # type: ignore[arg-type]
        retries=int(meta.get("retries", 0)),  # type: ignore[arg-type]
        jobs=int(meta.get("jobs", 0)),  # type: ignore[arg-type]
        cost={
            name: journal.scalar(f"cost.{name}")
            for name in _SCHEDULER_COST_FIELDS
        },
    )


def _server_row(journal: Journal) -> ServerRow:
    meta = journal.meta
    per_client = meta.get("per_client")
    return ServerRow(
        jobs=int(meta.get("jobs", 0)),  # type: ignore[arg-type]
        rejected=int(meta.get("rejected", 0)),  # type: ignore[arg-type]
        shed=int(meta.get("shed", 0)),  # type: ignore[arg-type]
        deadline_expired=int(meta.get("deadline_expired", 0)),  # type: ignore[arg-type]
        cells=int(meta.get("cells", 0)),  # type: ignore[arg-type]
        cache_hits=int(meta.get("cache_hits", 0)),  # type: ignore[arg-type]
        executed=int(meta.get("executed", 0)),  # type: ignore[arg-type]
        evictions=int(meta.get("evictions", 0)),  # type: ignore[arg-type]
        cache_hit_rate=float(meta.get("cache_hit_rate", 0.0)),  # type: ignore[arg-type]
        dollars=float(meta.get("dollars", 0.0)),  # type: ignore[arg-type]
        clients=int(meta.get("clients", 0)),  # type: ignore[arg-type]
        p50_latency=float(meta.get("p50_latency", 0.0)),  # type: ignore[arg-type]
        p99_latency=float(meta.get("p99_latency", 0.0)),  # type: ignore[arg-type]
        per_client=per_client if isinstance(per_client, dict) else {},
    )


def _assign_keys(rows: List[RunRow]) -> None:
    """Stable, unique run keys: coordinates plus a #n dedup suffix."""
    seen: Dict[str, int] = {}
    for row in rows:
        base = f"{row.system} {row.workload}/{row.dataset}@{row.machines}"
        n = seen.get(base, 0)
        seen[base] = n + 1
        row.key = base if n == 0 else f"{base}#{n + 1}"


def _jsonl_events(text: str, source: str) -> List[dict]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReportError(f"{source}:{lineno}: not JSON ({exc.msg})") from exc
        if not isinstance(event, dict):
            raise ReportError(f"{source}:{lineno}: expected a JSON object")
        events.append(event)
    return events


def load_source(path: Union[str, Path]) -> PerfSource:
    """Load one input path into its report-ready form."""
    kind = classify_path(path)
    p = Path(path)
    source = PerfSource(label=str(path))
    if kind == KIND_TRACE_DIR:
        files = sorted(x for x in p.iterdir() if x.name.endswith(".jsonl"))
        if not files:
            raise ReportError(f"{path}: no .jsonl journals in directory")
        for file in files:
            journal = Journal.read(file)
            if journal.meta.get("kind") == "scheduler":
                source.schedulers.append(_scheduler_row(journal))
            elif journal.meta.get("kind") == "server":
                source.servers.append(_server_row(journal))
            else:
                source.runs.append(_run_row_from_journal(journal))
    elif kind == KIND_JOURNAL:
        source.runs.append(_run_row_from_journal(Journal.read(p)))
    elif kind == KIND_SCHEDULER:
        source.schedulers.append(_scheduler_row(Journal.read(p)))
    elif kind == KIND_SERVER:
        source.servers.append(_server_row(Journal.read(p)))
    else:  # legacy runs-log
        for record in _jsonl_events(p.read_text(encoding="ascii"), str(path)):
            source.runs.append(_run_row_from_record(record))
    _assign_keys(source.runs)
    return source


# -- span aggregation -------------------------------------------------------

def hot_span_rows(
    runs: Sequence[RunRow], top: int = 10
) -> List[Tuple[str, str, int, float, float, float]]:
    """Flamegraph-style (engine, span, count, self_s, share, total_s).

    Self time is summed per (engine, span label) across every run;
    rows rank by self time (the flamegraph's widest leaves first) and
    ``share`` is each row's fraction of all runs' self time. A negative
    ``top`` raises :class:`ReportError` (a slice would drop the tail).
    """
    if top < 0:
        raise ReportError(f"top must be >= 0, got {top}")
    groups: Dict[Tuple[str, str], Tuple[float, float, int]] = {}
    grand = 0.0
    for row in runs:
        selfs = _self_times(row.spans)
        for span in row.spans:
            label = span["name"] + (
                f" [{span['cat']}]" if span.get("cat") else ""
            )
            key = (row.system, label)
            total, self_time, count = groups.get(key, (0.0, 0.0, 0))
            groups[key] = (
                total + span["dur"], self_time + selfs[span["id"]], count + 1
            )
            grand += selfs[span["id"]]
    ranked = sorted(groups.items(), key=lambda kv: (-kv[1][1], kv[0]))
    return [
        (system, label, count, self_time,
         self_time / grand if grand > 0 else 0.0, total)
        for (system, label), (total, self_time, count) in ranked[:top]
    ]


# -- rendering --------------------------------------------------------------

def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _cost_cell(cost: Optional[dict], key: str, fmt: str) -> str:
    if cost is None:
        return "-"
    value = cost.get(key)
    if value is None:
        return "-"
    return format(float(value), fmt)


def _render_runs(runs: Sequence[RunRow]) -> List[str]:
    header = ("run", "status", "total s", "mach-s", "GB shuf",
              "mem GB-h", "recov s", "$", "$/answer")
    rows = []
    totals = {"seconds": 0.0, "machine_seconds": 0.0, "gb": 0.0,
              "gbh": 0.0, "recovery": 0.0, "dollars": 0.0, "answers": 0.0}
    priced = 0
    for row in runs:
        cost = row.cost
        rows.append((
            row.key,
            row.status,
            f"{row.total_seconds:.1f}",
            _cost_cell(cost, "machine_seconds", ".0f"),
            (_cost_cell(cost, "bytes_shuffled", ".3e")
             if cost is None else f"{cost['bytes_shuffled'] / 1e9:.2f}"),
            _cost_cell(cost, "memory_gb_hours", ".3f"),
            _cost_cell(cost, "recovery_seconds", ".1f"),
            _cost_cell(cost, "dollars", ".4f"),
            _cost_cell(cost, "dollars_per_answer", ".4f"),
        ))
        totals["seconds"] += row.total_seconds
        if cost is not None:
            priced += 1
            totals["machine_seconds"] += float(cost["machine_seconds"])
            totals["gb"] += float(cost["bytes_shuffled"]) / 1e9
            totals["gbh"] += float(cost["memory_gb_hours"])
            totals["recovery"] += float(cost["recovery_seconds"])
            totals["dollars"] += float(cost["dollars"])
            totals["answers"] += float(cost["answers"])
    if priced:
        per_answer = (
            f"{totals['dollars'] / totals['answers']:.4f}"
            if totals["answers"] else "-"
        )
        rows.append((
            f"**total ({len(runs)} runs)**", "",
            f"{totals['seconds']:.1f}",
            f"{totals['machine_seconds']:.0f}",
            f"{totals['gb']:.2f}",
            f"{totals['gbh']:.3f}",
            f"{totals['recovery']:.1f}",
            f"{totals['dollars']:.4f}",
            per_answer,
        ))
    return _table(header, rows)


def _render_hot_spans(runs: Sequence[RunRow], top: int) -> List[str]:
    ranked = hot_span_rows(runs, top)
    if not ranked:
        return []
    lines = [f"### Hot spans (top {len(ranked)} by self time, simulated)", ""]
    rows = [
        (system, label, str(count), f"{self_time:.1f}",
         f"{share * 100:.1f}%", f"{total:.1f}")
        for system, label, count, self_time, share, total in ranked
    ]
    lines += _table(
        ("engine", "span", "count", "self s", "share", "total s"), rows
    )
    return lines


def _render_schedulers(schedulers: Sequence[SchedulerRow]) -> List[str]:
    lines = ["### Scheduler", ""]
    for row in schedulers:
        lines.append(
            f"- {row.cells} cells · {row.cache_hits} cached · "
            f"{row.executed} executed · {row.retries} retries · "
            f"jobs={row.jobs}"
        )
        cost = row.cost
        if cost.get("dollars"):
            answers = cost.get("answers", 0.0)
            per = (f" · ${cost['dollars'] / answers:.4f}/answer"
                   if answers else "")
            lines.append(
                f"  grid cost ${cost['dollars']:.4f} · "
                f"{cost['machine_seconds']:.0f} machine-s · "
                f"{cost['gb_shuffled']:.2f} GB shuffled · "
                f"{cost['memory_gb_hours']:.3f} mem GB-h · "
                f"{answers:.0f} answers{per}"
            )
    return lines


def _render_servers(servers: Sequence[ServerRow]) -> List[str]:
    lines = ["### Serving", ""]
    for row in servers:
        lines.append(
            f"- {row.jobs} jobs from {row.clients} clients · "
            f"{row.cells} cells ({row.cache_hits} cached, "
            f"{row.executed} executed, hit-rate "
            f"{row.cache_hit_rate:.2f}) · {row.rejected} rejected · "
            f"p50 {row.p50_latency * 1000:.0f} ms · "
            f"p99 {row.p99_latency * 1000:.0f} ms · "
            f"${row.dollars:.4f}"
        )
        # resilience counters only earn a line once they fire
        pressure = []
        if row.shed:
            pressure.append(f"{row.shed} shed under queue pressure")
        if row.deadline_expired:
            pressure.append(f"{row.deadline_expired} deadline-expired")
        if row.evictions:
            pressure.append(f"{row.evictions} cache evictions")
        if pressure:
            lines.append("  " + " · ".join(pressure))
    billed = [row for row in servers if row.per_client]
    if billed:
        lines += [""]
        rows = []
        for i, row in enumerate(billed):
            for client in sorted(row.per_client):
                account = row.per_client[client]
                rows.append((
                    str(i) if len(billed) > 1 else "",
                    client,
                    f"{float(account.get('jobs', 0.0)):.0f}",
                    f"{float(account.get('cells', 0.0)):.0f}",
                    f"{float(account.get('dollars', 0.0)):.4f}",
                ))
        header = ("#", "client", "jobs", "cells", "$")
        if len(billed) == 1:
            header = header[1:]
            rows = [row[1:] for row in rows]
        lines += _table(header, rows)
    return lines


def render_report(sources: Sequence[PerfSource], top: int = 10) -> str:
    """The deterministic Markdown report for one or many inputs."""
    lines = ["# Perf & cost report"]
    for source in sources:
        lines += ["", f"## {source.label}", ""]
        if source.runs:
            lines += _render_runs(source.runs)
            hot = _render_hot_spans(source.runs, top)
            if hot:
                lines += [""] + hot
        if source.schedulers:
            lines += [""] + _render_schedulers(source.schedulers)
        if source.servers:
            lines += [""] + _render_servers(source.servers)
    return "\n".join(lines)


# -- the regression gate ----------------------------------------------------

@dataclass
class DiffEntry:
    """One metric that moved (or a status flip) between two inputs."""

    key: str
    metric: str
    before: str
    after: str
    #: relative change ((after - before) / before); None for status flips
    change: Optional[float]
    regression: bool

    def render(self) -> str:
        arrow = "REGRESSION" if self.regression else "improvement"
        change = "" if self.change is None else f" ({self.change:+.1%})"
        return (f"{self.key} · {self.metric}: {self.before} -> "
                f"{self.after}{change} [{arrow}]")


@dataclass
class PerfDiff:
    """The outcome of comparing two inputs run-by-run."""

    label_a: str
    label_b: str
    threshold: float
    cost_threshold: float
    entries: List[DiffEntry] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    compared_runs: int = 0
    compared_servers: int = 0

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.regression]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [e for e in self.entries if not e.regression]

    @property
    def exit_code(self) -> int:
        """Non-zero iff a threshold-crossing regression exists (CI gate)."""
        return 1 if self.regressions else 0

    def render(self) -> str:
        lines = [
            f"# Perf diff — {self.label_a} vs {self.label_b}",
            "",
            f"compared {self.compared_runs} runs"
            + (f", {self.compared_servers} server journals"
               if self.compared_servers else "")
            + f" · time threshold ±{self.threshold:.1%} · cost threshold "
            f"±{self.cost_threshold:.1%}",
        ]
        regressions = self.regressions
        improvements = self.improvements
        if regressions:
            lines += ["", f"REGRESSIONS ({len(regressions)}):"]
            lines += [f"  {entry.render()}" for entry in regressions]
        else:
            lines += ["", "no regressions"]
        if improvements:
            lines += ["", f"improvements ({len(improvements)}):"]
            lines += [f"  {entry.render()}" for entry in improvements]
        if self.missing:
            lines += ["", f"missing in {self.label_b}:"]
            lines += [f"  {key}" for key in self.missing]
        if self.added:
            lines += ["", f"only in {self.label_b}:"]
            lines += [f"  {key}" for key in self.added]
        return "\n".join(lines)


def _compare(
    diff: PerfDiff,
    key: str,
    metric: str,
    before: float,
    after: float,
    threshold: float,
    worse: str = "higher",
    fmt: str = ".4f",
) -> None:
    """Append a diff entry when the relative change crosses the threshold."""
    if before <= 0.0 and after <= 0.0:
        return
    base = before if before > 0.0 else after
    change = (after - before) / base
    if abs(change) <= threshold:
        return
    regression = change > 0 if worse == "higher" else change < 0
    diff.entries.append(DiffEntry(
        key=key,
        metric=metric,
        before=format(before, fmt),
        after=format(after, fmt),
        change=change,
        regression=regression,
    ))


def diff_sources(
    a: PerfSource,
    b: PerfSource,
    threshold: float = 0.05,
    cost_threshold: Optional[float] = None,
) -> PerfDiff:
    """Compare two inputs; ``b`` regressing past a threshold gates CI.

    Runs pair by coordinate key, server journals by position. Time,
    dollars, and serving latency percentiles regress when they *rise* by
    more than the relative threshold; the serving cache hit-rate
    regresses when it *falls*. A run that completed in ``a`` but failed
    in ``b`` is always a regression. Each threshold must be finite and
    ``>= 0``, else :class:`ReportError`: a negative one would report
    every unchanged metric as moved.
    """
    for name, value in (("threshold", threshold),
                        ("cost threshold", cost_threshold)):
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ReportError(f"{name} must be finite and >= 0, got {value}")
    diff = PerfDiff(
        label_a=a.label,
        label_b=b.label,
        threshold=threshold,
        cost_threshold=threshold if cost_threshold is None else cost_threshold,
    )
    amap = {row.key: row for row in a.runs}
    bmap = {row.key: row for row in b.runs}
    diff.missing = [key for key in amap if key not in bmap]
    diff.added = [key for key in bmap if key not in amap]
    for key in amap:
        if key not in bmap:
            continue
        ra, rb = amap[key], bmap[key]
        diff.compared_runs += 1
        if ra.status != rb.status:
            diff.entries.append(DiffEntry(
                key=key, metric="status", before=ra.status, after=rb.status,
                change=None,
                regression=(ra.status == "ok" and rb.status != "ok"),
            ))
        _compare(diff, key, "total seconds", ra.total_seconds,
                 rb.total_seconds, threshold, fmt=".1f")
        if ra.cost is not None and rb.cost is not None:
            _compare(diff, key, "dollars", float(ra.cost["dollars"]),
                     float(rb.cost["dollars"]), diff.cost_threshold)
    for i, (sa, sb) in enumerate(zip(a.servers, b.servers)):
        key = f"server[{i}]"
        diff.compared_servers += 1
        _compare(diff, key, "p50 latency seconds", sa.p50_latency,
                 sb.p50_latency, threshold, fmt=".4f")
        _compare(diff, key, "p99 latency seconds", sa.p99_latency,
                 sb.p99_latency, threshold, fmt=".4f")
        _compare(diff, key, "cache hit-rate", sa.cache_hit_rate,
                 sb.cache_hit_rate, threshold, worse="lower", fmt=".3f")
        _compare(diff, key, "dollars", sa.dollars, sb.dollars,
                 diff.cost_threshold)
    return diff
