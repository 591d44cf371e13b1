"""Tests for repro.obs: spans, metrics, journals, exporters, CLI, lint.

The load-bearing guarantees:

* spans nest LIFO and always close, even when a simulated failure
  unwinds through them;
* metric names bind to one type (re-registration raises);
* the journal is deterministic — running the same seeded cell twice
  yields byte-identical JSONL;
* the Chrome export is schema-valid trace_event JSON;
* ``repro trace`` exits 0 on a journal and 2 on garbage;
* RPL001 allowlists exactly ``repro/obs/hostclock.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import run_cell
from repro.engines.base import RunResult
from repro.lint.program import build_program
from repro.lint.rules.rpl001_wallclock import WallClockRule
from repro.lint.source import SourceModule
from repro.obs import (
    ExtrasView,
    Journal,
    JournalError,
    MetricError,
    MetricsRegistry,
    SpanError,
    Tracer,
    build_journal,
    chrome_trace,
    one_line_summary,
    render_summary,
    superstep_rows,
)


def _manual_clock():
    state = {"t": 0.0}

    def advance(dt):
        state["t"] += dt

    return state, advance


class TestSpans:
    def test_nesting_parents(self):
        tracer = Tracer()
        outer = tracer.start("run", cat="run")
        inner = tracer.start("load", cat="phase")
        assert inner.parent == outer.id
        assert tracer.current is inner
        tracer.end(inner)
        tracer.end(outer)
        assert tracer.open_depth == 0

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.start("run")
        tracer.start("load")
        with pytest.raises(SpanError, match="out of order"):
            tracer.end(outer)

    def test_double_close_raises(self):
        tracer = Tracer()
        span = tracer.start("run")
        tracer.end(span)
        with pytest.raises(SpanError, match="already closed"):
            tracer.end(span)

    def test_context_manager_closes_on_failure(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("run"):
                with tracer.span("execute"):
                    raise ValueError("simulated OOM")
        assert tracer.open_depth == 0
        assert all(s.closed for s in tracer.spans)
        errors = [s.attrs.get("error") for s in tracer.finished()]
        assert errors == ["ValueError", "ValueError"]

    def test_error_span_carries_failure_provenance(self):
        # satellite contract: SimulatedFailure-shaped exceptions stamp
        # kind and machine onto every span they unwind through
        class FakeFailure(RuntimeError):
            kind = "OOM"
            machine = 3

        tracer = Tracer()
        with pytest.raises(FakeFailure):
            with tracer.span("run"):
                with tracer.span("execute"):
                    raise FakeFailure("boom")
        for span in tracer.finished():
            assert span.attrs["error"] == "FakeFailure"
            assert span.attrs["kind"] == "OOM"
            assert span.attrs["machine"] == 3

    def test_error_span_machine_defaults_to_cluster_wide(self):
        class ClusterWide(RuntimeError):
            kind = "TO"
            machine = None

        tracer = Tracer()
        with pytest.raises(ClusterWide):
            with tracer.span("run"):
                raise ClusterWide("timeout")
        (span,) = tracer.finished()
        assert span.attrs["kind"] == "TO"
        assert span.attrs["machine"] == -1

    def test_simulated_clock_timestamps(self):
        state, advance = _manual_clock()
        tracer = Tracer(now_fn=lambda: state["t"])
        with tracer.span("run"):
            advance(3.5)
        (span,) = tracer.finished()
        assert span.start == 0.0
        assert span.duration == 3.5

    def test_ids_sequential(self):
        tracer = Tracer()
        ids = []
        for _ in range(3):
            with tracer.span("x") as span:
                ids.append(span.id)
        assert ids == [1, 2, 3]


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        registry.counter("messages_sent").inc(5)
        registry.counter("messages_sent").inc(2)
        assert registry.value("messages_sent") == 7
        with pytest.raises(ValueError):
            registry.counter("messages_sent").inc(-1)

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("messages_sent")
        with pytest.raises(MetricError, match="counter"):
            registry.gauge("messages_sent")
        registry.histogram("superstep_seconds")
        with pytest.raises(MetricError):
            registry.counter("superstep_seconds")

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("superstep_seconds")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.summary() == {
            "count": 3.0, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_histogram_not_a_scalar(self):
        registry = MetricsRegistry()
        registry.histogram("superstep_seconds")
        with pytest.raises(KeyError):
            registry.value("superstep_seconds")


class TestExtrasView:
    def test_dict_surface(self):
        view = ExtrasView(MetricsRegistry())
        view["checkpoints"] = 1.0
        view["checkpoints"] += 1
        assert view["checkpoints"] == 2.0
        assert "checkpoints" in view
        assert dict(view) == {"checkpoints": 2.0}
        del view["checkpoints"]
        assert len(view) == 0

    def test_writes_reach_registry(self):
        registry = MetricsRegistry()
        view = ExtrasView(registry)
        view["replication_factor"] = 3.2
        assert registry.value("replication_factor") == 3.2

    def test_runresult_seeds_extras_into_registry(self):
        result = RunResult("BV", "pagerank", "twitter", 16,
                           extras={"checkpoints": 2.0})
        assert isinstance(result.extras, ExtrasView)
        assert result.extras["checkpoints"] == 2.0
        assert result.metrics.value("checkpoints") == 2.0


@pytest.fixture(scope="module")
def traced_result(tiny_twitter):
    return run_cell("BV", "pagerank", tiny_twitter, 16)


@pytest.fixture(scope="module")
def journal(traced_result):
    return traced_result.observation.journal()


class TestJournal:
    def test_structure(self, journal):
        assert journal.meta["system"] == "BV"
        names = [s["name"] for s in journal.spans()]
        assert names[0] == "run"
        assert "load" in names and "execute" in names
        assert journal.supersteps()
        # spans nest: every parent id occurs in the journal
        ids = {s["id"] for s in journal.spans()}
        assert all(s["parent"] in ids for s in journal.spans()
                   if s["parent"] is not None)

    def test_superstep_spans_under_execute(self, journal):
        by_id = {s["id"]: s for s in journal.spans()}
        execute = next(s for s in journal.spans() if s["name"] == "execute")
        for step in journal.supersteps():
            assert by_id[step["parent"]] is execute

    def test_deterministic_byte_identical(self, tiny_twitter):
        first = run_cell("BV", "pagerank", tiny_twitter, 16)
        second = run_cell("BV", "pagerank", tiny_twitter, 16)
        assert (first.observation.journal().dumps()
                == second.observation.journal().dumps())

    def test_roundtrip(self, journal, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.write(path)
        loaded = Journal.read(path)
        assert loaded.dumps() == journal.dumps()

    def test_open_span_rejected(self):
        tracer = Tracer()
        tracer.start("run")
        with pytest.raises(JournalError, match="open span"):
            build_journal({"system": "X"}, tracer)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(JournalError):
            Journal.read(path)
        path.write_text('{"type": "span"}\n')
        with pytest.raises(JournalError, match="meta"):
            Journal.read(path)

    def test_failure_recorded(self, small_wrn):
        result = run_cell("GL-S-R-I", "pagerank", small_wrn, 16)
        assert not result.ok
        failed = result.observation.journal()
        assert failed.meta["status"] == str(result.failure)
        assert any("error" in s.get("args", {}) for s in failed.spans())

    def test_failure_spans_carry_kind_and_machine(self, small_wrn):
        # every SimulatedFailure raised by an engine is a typed, placed
        # event: the error spans name the failure kind and the machine
        # it struck (-1 = cluster-wide)
        result = run_cell("GL-S-R-I", "pagerank", small_wrn, 16)
        assert not result.ok
        error_spans = [s for s in result.observation.journal().spans()
                       if "error" in s.get("args", {})]
        assert error_spans
        for span in error_spans:
            assert span["args"]["kind"] == str(result.failure)
            assert isinstance(span["args"]["machine"], int)


class TestExport:
    def test_chrome_schema(self, journal):
        trace = chrome_trace(journal)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X"}
        for event in events:
            if event["ph"] != "X":
                continue
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1
        # the whole thing serializes as JSON
        json.dumps(trace)

    def test_superstep_rows(self, journal, traced_result):
        rows = superstep_rows(journal)
        assert len(rows) == traced_result.iterations
        assert rows[0]["iteration"] == 1
        assert all(r["duration_s"] > 0 for r in rows)

    def test_render_summary(self, journal):
        text = render_summary(journal)
        assert "BV pagerank/twitter@16" in text
        assert "execute" in text
        assert "supersteps: " in text

    def test_one_line_summary(self, traced_result):
        line = one_line_summary(traced_result)
        assert line.startswith("spans: ")
        assert "slowest phase" in line
        assert "shuffled" in line


class TestTraceCli:
    @pytest.fixture()
    def journal_path(self, journal, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.write(path)
        return path

    def test_summary_exit_zero(self, journal_path, capsys):
        assert main(["trace", str(journal_path)]) == 0
        assert "supersteps" in capsys.readouterr().out

    def test_chrome_and_csv(self, journal_path, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        csv_path = tmp_path / "steps.csv"
        assert main(["trace", str(journal_path), "--chrome", str(chrome),
                     "--csv", str(csv_path)]) == 0
        assert json.loads(chrome.read_text())["traceEvents"]
        assert csv_path.read_text().splitlines()[0].startswith("iteration,")

    def test_invalid_journal_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert main(["trace", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_journal_exit_two(self, tmp_path):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 2

    def test_run_trace_flag(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["run", "BV", "pagerank", "twitter", "-m", "16",
                     "--size", "tiny", "--trace", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "spans: " in printed
        assert Journal.read(out).supersteps()


class TestWallClockAllowlist:
    CALL = "import time\ntime.perf_counter()\n"

    def test_hostclock_allowlisted(self):
        module = SourceModule.parse(
            self.CALL, path="src/repro/obs/hostclock.py"
        )
        assert list(WallClockRule().check(build_program([module]))) == []

    def test_other_files_still_flagged(self):
        module = SourceModule.parse(
            self.CALL, path="src/repro/cluster/cluster.py"
        )
        violations = list(WallClockRule().check(build_program([module])))
        assert len(violations) == 1
        assert violations[0].code == "RPL001"
