"""repro.serve: the benchmark-as-a-service daemon.

The serving guarantees everything else leans on: the fair queue's
deterministic service order (strict priorities, weighted shares,
admission control), the typed protocol's validation and framing, and —
above all — that a served grid is *bit-equal* to the one-shot executor
run the client would have computed alone (``same_results`` plus
byte-identical per-cell journals), with overlapping submissions served
from the shared warm cache instead of recomputed.
"""

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.runner import ExperimentSpec, run_grid
from repro.exec.executor import execute_specs
from repro.exec.serialize import result_to_payload
from repro.obs import Journal, render_summary
from repro.obs import report as perf
from repro.serve import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_RUNNING,
    FairQueue,
    Job,
    JobRequest,
    JobRunner,
    ProtocolError,
    QueueFullError,
    ServeClient,
    ServeDaemon,
    ServeError,
    ServerStats,
    grid_from_payloads,
    parse_address,
    percentile,
    server_observation,
)
from repro.serve import daemon as daemon_module
from repro.serve import protocol
from repro.serve.protocol import (
    dumps_message,
    parse_frame,
    recv_message,
    wait_timeout,
)


def request(client="alice", systems=("G",), workloads=("pagerank",),
            datasets=("twitter",), sizes=(16,), priority=0, weight=1.0,
            deadline=0.0):
    return JobRequest(
        client=client, systems=tuple(systems), workloads=tuple(workloads),
        datasets=tuple(datasets), cluster_sizes=tuple(sizes),
        dataset_size="tiny", priority=priority, weight=weight,
        deadline=deadline,
    )


def job(seq, **kwargs):
    return Job(id=f"j-{seq:06d}", request=request(**kwargs), seq=seq)


# -- protocol ---------------------------------------------------------------


def test_job_request_roundtrips_through_the_wire_form():
    original = request(systems=("G", "BV"), sizes=(16, 32), priority=2,
                       weight=1.5)
    recovered = JobRequest.from_dict(original.to_dict())
    assert recovered == original
    assert recovered.cells == 4


@pytest.mark.parametrize("field,value", [
    ("systems", ("nope",)),
    ("workloads", ("sorting",)),
    ("datasets", ("imaginary",)),
    ("cluster_sizes", (0,)),
    ("cluster_sizes", (True,)),
    ("weight", 0.0),
    ("weight", -1.0),
    ("priority", 1.5),
])
def test_job_request_validation_rejects_bad_coordinates(field, value):
    payload = request().to_dict()
    payload[field] = list(value) if isinstance(value, tuple) else value
    with pytest.raises(ProtocolError):
        JobRequest.from_dict(payload)


def test_job_request_to_spec_matches_the_executor_shape():
    spec = request(systems=("G", "BV"), sizes=(16,)).to_spec()
    assert isinstance(spec, ExperimentSpec)
    assert spec.systems == ("G", "BV")
    assert spec.dataset_size == "tiny"


def test_framing_is_canonical_and_roundtrips(tmp_path):
    message = {"op": "ping", "b": 2, "a": 1}
    frame = dumps_message(message)
    assert frame == b'{"a":1,"b":2,"op":"ping"}\n'
    path = tmp_path / "frame.bin"
    path.write_bytes(frame + b"not json\n")
    with open(path, "rb") as fh:
        assert recv_message(fh) == {"a": 1, "b": 2, "op": "ping"}
        with pytest.raises(ProtocolError):
            recv_message(fh)
        assert recv_message(fh) is None  # clean EOF


def test_parse_address_classifies_unix_and_tcp():
    assert parse_address("./serve.sock") == ("unix", "./serve.sock")
    assert parse_address("plain-name") == ("unix", "plain-name")
    assert parse_address("127.0.0.1:7070") == ("tcp", ("127.0.0.1", 7070))
    assert parse_address("not:aport") == ("unix", "not:aport")


# -- the fair queue ---------------------------------------------------------


def test_higher_priority_always_preempts_queued_lower_priority():
    queue = FairQueue(max_cells=64)
    low = job(1, client="batch", priority=0)
    high = job(2, client="urgent", priority=5)
    assert queue.offer(low) is None
    assert queue.offer(high) is None
    assert queue.take() is high
    assert queue.take() is low


def test_weighted_fairness_gives_shares_proportional_to_weight():
    # A (weight 2) and B (weight 1) interleave 1-cell submissions; over
    # the first six services A must get exactly its 2:1 share
    queue = FairQueue(max_cells=64)
    seq = 0
    for _ in range(4):
        for client, weight in (("A", 2.0), ("B", 1.0)):
            seq += 1
            assert queue.offer(job(seq, client=client, weight=weight)) is None
    served = [queue.take().request.client for _ in range(6)]
    assert served.count("A") == 4
    assert served.count("B") == 2
    assert served[0] == "A"  # the lightest virtual-finish tag runs first


def test_service_order_is_deterministic_via_the_seq_tiebreak():
    queue = FairQueue(max_cells=64)
    for seq in range(1, 4):
        assert queue.offer(job(seq, client=f"c{seq}")) is None
    # identical tags resolve by submission order, so the order is stable
    assert [queue.take().seq for _ in range(3)] == [1, 2, 3]


def test_clients_cannot_bank_idle_credit():
    # a client that sat idle while others were served starts at the
    # queue's virtual time, not at its stale last tag
    queue = FairQueue(max_cells=64)
    assert queue.offer(job(1, client="busy")) is None
    assert queue.take().request.client == "busy"
    assert queue.offer(job(2, client="busy")) is None
    assert queue.offer(job(3, client="idle")) is None
    busy, idle = queue.order()
    # both started at the served vtime: tags are equal, seq breaks tie
    assert (busy.request.client, idle.request.client) == ("busy", "idle")
    assert busy.vfinish == idle.vfinish


def test_admission_control_rejects_with_a_retry_hint():
    queue = FairQueue(max_cells=4)
    assert queue.offer(job(1, systems=("G", "BV"), sizes=(16,))) is None
    retry = queue.offer(job(2, systems=("G", "BV", "S"), sizes=(16,)))
    assert retry == pytest.approx(0.05)  # 1 overflow cell
    assert len(queue) == 1  # the rejected job never entered
    retry = queue.offer(job(3, systems=("G",) * 1, sizes=(16, 32, 64)))
    assert retry == pytest.approx(0.05)
    assert queue.offer(job(4)) is None  # 1 cell still fits


def test_cancel_mid_queue_removes_the_job_from_service():
    queue = FairQueue(max_cells=64)
    keep, drop = job(1, client="keep"), job(2, client="drop")
    assert queue.offer(keep) is None
    assert queue.offer(drop) is None
    assert queue.cancel(drop.id) is True
    assert drop.state == JOB_CANCELLED
    assert queue.position(drop.id) is None
    assert [j.request.client for j in queue.order()] == ["keep"]
    assert queue.take() is keep
    assert queue.take() is None
    assert queue.cancel(keep.id) is False  # no longer queued


# -- stats ------------------------------------------------------------------


def test_percentile_is_nearest_rank_and_member_of_sample():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 99) == 5.0
    assert percentile(values, 100) == 5.0
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_server_stats_aggregates_and_bills_per_client():
    stats = ServerStats()
    done = job(1, client="alice", systems=("G", "BV"))
    done.state = JOB_DONE
    done.submitted_host, done.started_host, done.finished_host = 1.0, 2.0, 4.0
    done.cache_hits, done.executed, done.cost_dollars = 1, 1, 7.5
    stats.record_job(done)
    stats.record_rejection("bob")
    snapshot = stats.snapshot()
    assert snapshot["jobs"] == 1 and snapshot["rejected"] == 1
    assert snapshot["cells"] == 2 and snapshot["cache_hit_rate"] == 0.5
    assert snapshot["p50_latency"] == pytest.approx(3.0)
    assert snapshot["p50_queue_wait"] == pytest.approx(1.0)
    assert snapshot["per_client"]["alice"]["dollars"] == 7.5
    assert snapshot["per_client"]["bob"]["jobs"] == 0.0


def test_cancelled_jobs_count_but_never_bill_or_sample():
    stats = ServerStats()
    gone = job(1)
    gone.state = JOB_CANCELLED
    stats.record_job(gone)
    snapshot = stats.snapshot()
    assert snapshot["jobs_cancelled"] == 1
    assert snapshot["cells"] == 0 and snapshot["dollars"] == 0.0
    assert snapshot["p50_latency"] == 0.0


# -- end-to-end: daemon + clients over a real socket ------------------------


@pytest.fixture()
def daemon(tmp_path):
    # TCP on a kernel-chosen port: unix paths under pytest's tmp dirs
    # can exceed the AF_UNIX 108-byte limit
    server = ServeDaemon(
        address="127.0.0.1:0",
        cache=tmp_path / "cache",
        max_queue_cells=64,
        journal_path=tmp_path / "_server.jsonl",
    ).start()
    yield server
    server.stop()


def overlapping_specs():
    """Three clients' grids sharing the (G, pagerank, twitter, 16) cell."""
    return {
        "alice": dict(systems=("G", "BV"), sizes=(16,)),
        "bob": dict(systems=("G",), sizes=(16, 32)),
        "carol": dict(systems=("G", "BV"), sizes=(16, 32)),
    }


def test_served_grids_are_bit_equal_to_the_oneshot_executor(daemon):
    payloads_by_client = {}
    for name, shape in overlapping_specs().items():
        with ServeClient(daemon.address, client=name) as link:
            job_id = link.submit(link.request(
                workloads=("pagerank",), datasets=("twitter",),
                dataset_size="tiny", systems=shape["systems"],
                cluster_sizes=shape["sizes"]))
            link.wait(job_id, timeout=120)
            payloads_by_client[name] = link.fetch_payloads(job_id)

    for name, shape in overlapping_specs().items():
        served = grid_from_payloads(payloads_by_client[name])
        oneshot = run_grid(ExperimentSpec(
            systems=shape["systems"], workloads=("pagerank",),
            datasets=("twitter",), cluster_sizes=shape["sizes"],
            dataset_size="tiny"))
        assert served.same_results(oneshot)

    # byte-identical journals: the served payload carries the exact
    # canonical journal text the one-shot executor would serialize
    oneshot = execute_specs([ExperimentSpec(
        systems=("G", "BV"), workloads=("pagerank",), datasets=("twitter",),
        cluster_sizes=(16, 32), dataset_size="tiny")], jobs=1, cache=None)
    expected = {
        (r.system, r.cluster_size): result_to_payload(r)["journal"]
        for r in oneshot.grid.cells.values()
    }
    for payload in payloads_by_client["carol"]:
        record = payload["record"]
        assert payload["journal"] == expected[
            record["system"], record["cluster_size"]]

    # each distinct cell runs once across the overlapping clients; every
    # other served cell is a replay from the shared cache
    cells = [(system, size) for shape in overlapping_specs().values()
             for system in shape["systems"] for size in shape["sizes"]]
    with ServeClient(daemon.address, client="monitor") as link:
        stats = link.stats()["stats"]
    assert stats["cells"] == len(cells)
    assert stats["executed"] == len(set(cells))
    assert stats["cache_hits"] == len(cells) - len(set(cells))


def test_overlapping_submissions_hit_the_shared_cache(daemon):
    with ServeClient(daemon.address, client="warm") as link:
        first = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny"))
        link.wait(first, timeout=120)
    with ServeClient(daemon.address, client="reuse") as link:
        second = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny"))
        status = link.wait(second, timeout=120)
        assert status["cache_hits"] == 1 and status["executed"] == 0
        stats = link.stats()["stats"]
    assert stats["cache_hit_rate"] == 0.5
    assert stats["per_client"]["reuse"]["dollars"] == pytest.approx(
        stats["per_client"]["warm"]["dollars"])


def test_result_stream_resumes_from_a_cursor_across_connections(daemon):
    with ServeClient(daemon.address, client="alice") as link:
        job_id = link.submit(link.request(
            systems=("G", "BV"), workloads=("pagerank",),
            datasets=("twitter",), cluster_sizes=(16,), dataset_size="tiny"))
        link.wait(job_id, timeout=120)
        full = link.fetch_payloads(job_id)
    assert len(full) == 2
    # a brand-new connection re-attaches to the same job id and
    # continues from an arbitrary cursor
    with ServeClient(daemon.address, client="alice-again") as link:
        tail = link.fetch_payloads(job_id, after=1)
        assert tail == full[1:]
        batch = link.results(job_id, after=2)
        assert batch["payloads"] == [] and batch["complete"] is True


def test_cancel_through_the_protocol_and_unknown_ops(daemon):
    with ServeClient(daemon.address, client="alice") as link:
        # unknown op and unknown job are protocol errors, not crashes
        assert link.call({"op": "nonsense"})["error"] == "unknown-op"
        with pytest.raises(ServeError):
            link.status("j-999999")
        job_id = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny"))
        link.wait(job_id, timeout=120)
        with pytest.raises(ServeError):  # terminal jobs are not cancellable
            link.cancel(job_id)
        assert link.ping()["version"] == 1


def test_server_journal_classifies_renders_and_diffs(daemon, tmp_path):
    with ServeClient(daemon.address, client="alice") as link:
        job_id = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny"))
        link.wait(job_id, timeout=120)
    daemon.stop()  # the loop writes its journal on the way down
    path = tmp_path / "_server.jsonl"

    assert perf.classify_path(path) == perf.KIND_SERVER
    summary = render_summary(Journal.read(path))
    assert "server" in summary and "hit-rate" in summary

    source = perf.load_source(path)
    assert len(source.servers) == 1
    row = source.servers[0]
    assert row.jobs == 1 and row.cells == 1
    assert "alice" in row.per_client
    report = perf.render_report([source])
    assert "### Serving" in report and "alice" in report

    # the regression gate: a self-diff is clean, a degraded serving
    # profile (slower p99, colder cache, higher bill) gates
    clean = perf.diff_sources(source, perf.load_source(path))
    assert clean.exit_code == 0 and clean.compared_servers == 1
    worse = perf.load_source(path)
    worse.servers[0].p99_latency *= 10
    worse.servers[0].cache_hit_rate = 0.0
    degraded = perf.diff_sources(source, worse)
    assert degraded.exit_code == 1
    metrics = {entry.metric for entry in degraded.regressions}
    assert "p99 latency seconds" in metrics


def test_rejected_submissions_back_off_and_eventually_land(tmp_path):
    # a queue bounded at 2 cells forces queue-full responses while the
    # scheduler drains; the client's retry loop must absorb them
    server = ServeDaemon(
        address="127.0.0.1:0", cache=tmp_path / "cache", max_queue_cells=2,
    ).start()
    try:
        with ServeClient(server.address, client="pushy") as link:
            ids = [
                link.submit(link.request(
                    systems=("G", "BV"), workloads=("pagerank",),
                    datasets=("twitter",), cluster_sizes=(16,),
                    dataset_size="tiny"))
                for _ in range(4)
            ]
            for job_id in ids:
                assert link.wait(job_id, timeout=120)["state"] == JOB_DONE
            stats = link.stats()["stats"]
        assert stats["jobs_done"] == 4
    finally:
        server.stop()


def test_server_observation_meta_matches_the_snapshot():
    stats = ServerStats()
    done = job(1, client="alice")
    done.state = JOB_DONE
    done.submitted_host, done.started_host, done.finished_host = 0.0, 0.5, 1.0
    done.executed, done.cost_dollars = 1, 2.5
    stats.record_job(done)
    obs = server_observation(stats, "127.0.0.1:1")
    assert obs.meta["kind"] == "server"
    assert obs.meta["dollars"] == 2.5
    assert obs.metrics.value("serve.cells") == 1
    journal = obs.journal()
    assert Journal.loads(journal.dumps()).meta == journal.meta


# -- hardening: deadlines, shedding, eviction, drain -------------------------


def close_unstarted(server):
    """Release a daemon whose loop never ran, serving nothing queued.

    A stop requested before the loop starts makes ``serve_forever``
    exit on its first pass, closing every socket on the way out.
    """
    server.stop()
    server.serve_forever()


@pytest.fixture()
def cold():
    """An unstarted daemon: the policy layer with no loop running."""
    server = ServeDaemon(address="127.0.0.1:0", cache=None, max_queue_cells=8)
    yield server
    close_unstarted(server)


def submit_message(**kwargs):
    return {"op": "submit", "job": request(**kwargs).to_dict()}


def test_deadline_round_trips_and_rejects_negatives():
    original = request(deadline=1.5)
    assert JobRequest.from_dict(original.to_dict()) == original
    payload = request().to_dict()
    payload["deadline"] = -1.0
    with pytest.raises(ProtocolError):
        JobRequest.from_dict(payload)
    with pytest.raises(ValueError):
        ServeDaemon(address="127.0.0.1:0", cache=None, default_deadline=-1.0)


def test_submit_stamps_deadlines_from_request_or_daemon_default(cold):
    # no deadline anywhere: the job never expires
    free = cold._submit(submit_message())
    assert cold.jobs[free["job"]].deadline_host == 0.0
    # the request's own budget counts from submission
    hurried = cold._submit(submit_message(deadline=5.0))
    job = cold.jobs[hurried["job"]]
    assert job.deadline_host - job.submitted_host == pytest.approx(5.0)

    lax = ServeDaemon(address="127.0.0.1:0", cache=None, default_deadline=2.0)
    try:
        defaulted = lax.jobs[lax._submit(submit_message())["job"]]
        assert (defaulted.deadline_host - defaulted.submitted_host
                == pytest.approx(2.0))
        own = lax.jobs[lax._submit(submit_message(deadline=5.0))["job"]]
        assert own.deadline_host - own.submitted_host == pytest.approx(5.0)
    finally:
        close_unstarted(lax)


def test_should_stop_honours_cancel_then_deadline():
    # the runner checks the job at every cell boundary: a cancel first,
    # then the deadline, each stopping the grid right there
    runner = JobRunner(cache=None)
    free = job(1, systems=("G", "BV"))
    runner.run_job(free)
    assert free.state == JOB_DONE and len(free.payloads) == 2

    both = job(2, systems=("G", "BV"))
    both.cancel_requested = True
    both.deadline_host = 1e-9  # long past on any host clock
    runner.run_job(both)
    assert both.state == JOB_CANCELLED
    assert both.error == "cancelled after 1 of 2 cells"

    expired = job(3, systems=("G", "BV"))
    expired.deadline_host = 1e-9
    runner.run_job(expired)
    assert expired.state == JOB_CANCELLED
    assert expired.error == "deadline-exceeded after 1 of 2 cells"

    # only the deadline verdict counts as a deadline expiry
    stats = ServerStats()
    for finished in (free, both, expired):
        stats.record_job(finished)
    assert stats.deadline_expired == 1
    assert stats.jobs_cancelled == 2 and stats.jobs_done == 1


def test_cancelling_a_running_job_is_cooperative_not_silent(cold):
    # the old behaviour dropped cancels of running jobs on the floor;
    # now the client is told "cancelling" and the flag is set for the
    # runner's next cell-boundary check
    running = job(1)
    running.state = JOB_RUNNING
    cold.jobs[running.id] = running
    response = cold._cancel({"op": "cancel", "job": running.id})
    assert response["ok"] and response["cancelling"] is True
    assert running.cancel_requested
    assert running.state == JOB_RUNNING  # the effect lands at the boundary


def test_job_runner_stops_at_the_next_cell_boundary():
    runner = JobRunner(cache=None)
    victim = job(1, systems=("G", "BV"))  # 2 cells
    pumped = []

    def pump():
        # the daemon's socket poll: here, a cancel lands mid-job
        pumped.append(len(victim.payloads))
        victim.cancel_requested = True

    runner.run_job(victim, pump)
    assert pumped == [1]  # pumped once, after the first cell was written
    assert victim.state == JOB_CANCELLED
    assert victim.error == "cancelled after 1 of 2 cells"
    assert len(victim.payloads) == 1  # the completed prefix stays streamable
    assert victim.cost_dollars == 0.0  # only a finished grid is billed


def test_job_runner_writes_progress_and_verdict_onto_the_job():
    # one owner: the runner writes payloads, counts, the terminal state
    # and the bill straight onto the job it serves
    runner = JobRunner(cache=None)
    served = job(1)
    runner.run_job(served)
    assert served.state == JOB_DONE and served.error is None
    assert served.cost_dollars > 0
    assert [p["record"]["system"] for p in served.payloads] == ["G"]
    assert (served.executed, served.cache_hits) == (1, 0)  # cold: executed


def test_shed_for_displaces_only_strictly_lower_priority():
    queue = FairQueue(max_cells=4)
    first = job(1, client="batch", systems=("G", "BV"), priority=0)
    second = job(2, client="batch2", systems=("G", "BV"), priority=0)
    assert queue.offer(first) is None and queue.offer(second) is None

    urgent = job(3, client="urgent", systems=("G", "BV"), priority=5)
    shed = queue.shed_for(urgent)
    # the victim comes from the back of the service order
    assert [victim.id for victim in shed] == [second.id]
    assert second.state == JOB_CANCELLED
    assert queue.offer(urgent) is None

    # equal-priority work is never displaced, even when nothing fits:
    # a queue full of priority-5 jobs yields nothing to another 5
    full = FairQueue(max_cells=4)
    for seq, client in ((4, "p1"), (5, "p2")):
        assert full.offer(
            job(seq, client=client, systems=("G", "BV"), priority=5)) is None
    peer = job(6, client="peer", systems=("G", "BV"), priority=5)
    assert full.shed_for(peer) == []
    assert len(full) == 2  # untouched


def test_submit_sheds_queued_work_for_higher_priority(cold):
    # four 2-cell background jobs fill the 8-cell queue
    for client in ("a", "b", "c", "d"):
        response = cold._submit(
            submit_message(client=client, systems=("G", "BV"), priority=0))
        assert response["ok"]
    # an equal-priority overflow is still an honest queue-full rejection
    rejected = cold._submit(
        submit_message(client="e", systems=("G", "BV"), priority=0))
    assert rejected["error"] == "queue-full" and rejected["retry_after"] > 0
    assert cold.stats.rejected == 1

    admitted = cold._submit(
        submit_message(client="urgent", systems=("G", "BV"), priority=5))
    assert admitted["ok"]
    assert cold.stats.shed == 1
    victims = [j for j in cold.jobs.values() if j.state == JOB_CANCELLED]
    assert len(victims) == 1
    assert victims[0].error.startswith("shed:")
    assert cold.queue.backlog_cells() == 8  # still at capacity, reshaped


def test_draining_daemon_refuses_new_submissions(cold):
    response = cold._answer(None, {"op": "drain"})
    assert response["ok"] and response["draining"] is True
    refused = cold._submit(submit_message())
    assert refused["error"] == "draining"


def test_expired_job_is_cancelled_instead_of_served(daemon):
    with ServeClient(daemon.address, client="hurried") as link:
        job_id = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny", deadline=1e-9))
        status = link.wait(job_id, timeout=60)
        assert status["state"] == JOB_CANCELLED
        assert "deadline" in status["message"]
        assert link.stats()["stats"]["deadline_expired"] >= 1


def test_cache_budget_evicts_lru_and_journals_the_count(tmp_path):
    journal_path = tmp_path / "_server.jsonl"
    server = ServeDaemon(
        address="127.0.0.1:0", cache=tmp_path / "cache", cache_budget=1,
        journal_path=journal_path,
    ).start()
    try:
        with ServeClient(server.address, client="alice") as link:
            for system in ("G", "V"):
                job_id = link.submit(link.request(
                    systems=(system,), workloads=("pagerank",),
                    datasets=("twitter",), cluster_sizes=(16,),
                    dataset_size="tiny"))
                assert link.wait(job_id, timeout=120)["state"] == JOB_DONE
            assert link.stats()["stats"]["evictions"] >= 1
        assert len(server.runner.cache) == 1  # budget held on disk too
    finally:
        server.stop()
    journal = Journal.read(journal_path)
    assert journal.meta["evictions"] >= 1


def wait_for_threads(count, timeout=120.0):
    """Block until the process is back to ``count`` Python threads."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


def test_drain_serves_the_backlog_then_exits_cleanly(tmp_path):
    journal_path = tmp_path / "_server.jsonl"
    before = threading.active_count()
    server = ServeDaemon(
        address="127.0.0.1:0", cache=tmp_path / "cache",
        journal_path=journal_path,
    ).start()
    with ServeClient(server.address, client="alice") as link:
        ids = [
            link.submit(link.request(
                systems=(system,), workloads=("pagerank",),
                datasets=("twitter",), cluster_sizes=(16,),
                dataset_size="tiny"))
            for system in ("G", "BV")
        ]
        assert link.drain()["draining"] is True
    # the loop finishes the backlog, then takes the daemon down itself
    # -- its thread ends and the journal appears with no stop() involved
    assert wait_for_threads(before) == before
    assert [server.jobs[i].state for i in ids] == [JOB_DONE, JOB_DONE]
    assert Journal.read(journal_path).meta["jobs"] == 2
    with pytest.raises(OSError):  # the listening socket is closed
        ServeClient(server.address, client="late", timeout=5)
    server.stop()  # nothing left to stop: returns at once


def test_stop_with_an_inflight_job_never_hangs_or_leaks(tmp_path):
    # the shutdown regression: stop() while a job is queued or running
    # must come back promptly with the loop joined and the job in a
    # terminal state, never a hung daemon or a leaked thread
    journal_path = tmp_path / "_server.jsonl"
    before = threading.active_count()
    server = ServeDaemon(
        address="127.0.0.1:0", cache=tmp_path / "cache",
        journal_path=journal_path,
    ).start()
    with ServeClient(server.address, client="alice") as link:
        job_id = link.submit(link.request(
            systems=("G", "BV"), workloads=("pagerank",),
            datasets=("twitter",), cluster_sizes=(16, 32),
            dataset_size="tiny"))
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    stopper.join(timeout=120)
    assert not stopper.is_alive()
    assert threading.active_count() == before  # the loop thread is joined
    job = server.jobs[job_id]
    assert job.done
    assert job.state in (JOB_DONE, JOB_CANCELLED, JOB_FAILED)
    if job.state == JOB_FAILED:  # never started: a clean error payload
        assert "daemon stopped" in job.error
    assert journal_path.is_file()


def hold_until_cancelled(job, pump):
    """A stand-in ``run_job`` whose one cell never ends.

    It keeps pumping the loop the way the real runner does between
    cells, so the daemon stays responsive, until a cancel or a stop.
    """
    while not job.cancel_requested:
        pump()
        time.sleep(0.005)
    job.state, job.error = JOB_CANCELLED, "cancelled after 0 cells"


def stuck_daemon(**kwargs):
    server = ServeDaemon(address="127.0.0.1:0", cache=None, **kwargs)
    server.runner.run_job = hold_until_cancelled
    return server.start()


SPEC = dict(systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny")


def test_queue_full_exhaustion_raises_typed_error_and_streams_time_out(tmp_path):
    # the first job holds the loop's runner forever and the second
    # fills the queue behind it, so admission control rejects every
    # retry and the queued job's stream never completes
    server = stuck_daemon(max_queue_cells=1)
    try:
        with ServeClient(server.address, client="pushy") as link:
            link.submit(link.request(**SPEC))
            second = link.submit(link.request(**SPEC))
            with pytest.raises(QueueFullError) as info:
                link.submit(link.request(**SPEC), retries=2, backoff_cap=0.01)
            assert info.value.code == "queue-full"
            assert info.value.rejections == 3  # retries + the final attempt
            with pytest.raises(ServeError) as timed_out:
                link.fetch_payloads(second, timeout=0.2)
            assert timed_out.value.code == "timeout"
    finally:
        server.stop()


# -- one owner: what a single loop must survive -------------------------------


@pytest.mark.parametrize("check,value", [
    ("frame", b'{"op":"wait","job":"j-000001","timeout":NaN}'),
    ("frame", b'{"op":"submit","job":{"deadline":Infinity}}'),
    ("frame", b'{"op":"submit","job":{"weight":-Infinity}}'),
    ("frame", b'{"op":"wait","job":"j-000001","timeout":1e400}'),
    ("job", {"weight": True}),
    ("job", {"priority": True}),
    ("job", {"deadline": float("nan")}),
    ("job", {"weight": float("inf")}),
    ("wait", True),
    ("wait", float("nan")),
])
def test_frames_and_fields_reject_bools_and_non_finite_numbers(check, value):
    # NaN never compares, so a NaN wait timeout could never expire and
    # a NaN deadline never fire; bool is an int subclass, never a number
    # a client meant to send
    with pytest.raises(ProtocolError):
        if check == "frame":
            parse_frame(value + b"\n")
        elif check == "job":
            JobRequest.from_dict(dict(request().to_dict(), **value))
        else:
            wait_timeout({"op": "wait", "job": "j-000001", "timeout": value})


def served_alongside(server):
    """Another client's submit->wait completes: the loop is not wedged."""
    with ServeClient(server.address, client="bystander", timeout=60) as link:
        job_id = link.submit(link.request(**SPEC))
        return link.wait(job_id, timeout=60)["state"]


def raw_connection(server, rcvbuf=None):
    host, port = parse_address(server.address)[1]
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(60)
    sock.connect((host, port))
    return sock


def test_a_half_sent_frame_does_not_block_other_clients(daemon):
    stalled = raw_connection(daemon)
    try:
        stalled.sendall(b'{"op":"pi')
        assert served_alongside(daemon) == JOB_DONE
        # the half frame was kept, not dropped: finishing it is answered
        stalled.sendall(b'ng"}\n')
        reply = recv_message(stalled.makefile("rb"))
        assert reply["ok"] and reply["version"] == 1
    finally:
        stalled.close()


def test_an_oversized_frame_is_refused_without_blocking_other_clients(
        daemon, monkeypatch):
    # the bound, not the megabytes, is under test: shrink it
    monkeypatch.setattr(daemon_module, "MAX_LINE_BYTES", 4096)
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    greedy = raw_connection(daemon)
    try:
        greedy.sendall(b"x" * 5000)  # no newline yet: over the bound
        stream = greedy.makefile("rb")
        reply = recv_message(stream)
        assert reply["error"] == "protocol" and "exceeds" in reply["message"]
        assert stream.read() == b""  # answered once, then hung up
        assert served_alongside(daemon) == JOB_DONE
    finally:
        greedy.close()


def test_a_client_that_never_reads_does_not_block_other_clients(daemon):
    with ServeClient(daemon.address, client="hoarder") as link:
        job_id = link.submit(link.request(
            systems=("G", "BV", "V"), workloads=("pagerank",),
            datasets=("twitter",), cluster_sizes=(16, 32),
            dataset_size="tiny"))
        link.wait(job_id, timeout=120)
    # ~230 KB per reply, 40 replies asked for and none read: far more
    # than the socket buffers hold, so the daemon's send stays pending
    hoarder = raw_connection(daemon, rcvbuf=4096)
    try:
        request_frame = dumps_message({"op": "results", "job": job_id})
        hoarder.sendall(request_frame * 40)
        assert served_alongside(daemon) == JOB_DONE
        # nothing was dropped or reordered while the hoarder stalled
        stream = hoarder.makefile("rb")
        for _ in range(40):
            batch = recv_message(stream)
            assert batch["ok"] and len(batch["payloads"]) == 6
    finally:
        hoarder.close()


def test_a_parked_wait_times_out_on_schedule():
    server = stuck_daemon()
    try:
        with ServeClient(server.address, client="patient") as link:
            job_id = link.submit(link.request(**SPEC))
            start = time.monotonic()
            reply = link.call({"op": "wait", "job": job_id, "timeout": 0.3})
            waited = time.monotonic() - start
        assert reply["error"] == "timeout" and reply["state"] == JOB_RUNNING
        assert 0.3 <= waited < 2.0
    finally:
        server.stop()


def test_frames_queued_behind_a_parked_wait_are_answered_in_order():
    server = stuck_daemon()
    try:
        with ServeClient(server.address, client="eager") as link:
            job_id = link.submit(link.request(**SPEC))
        eager = raw_connection(server)
        try:
            # one write, two requests: the ping waits behind the wait
            eager.sendall(
                dumps_message({"op": "wait", "job": job_id, "timeout": 0.2})
                + dumps_message({"op": "ping"}))
            stream = eager.makefile("rb")
            assert recv_message(stream)["error"] == "timeout"
            assert recv_message(stream)["version"] == 1
        finally:
            eager.close()
    finally:
        server.stop()


def test_serve_runs_on_one_thread_and_start_adds_exactly_one(tmp_path):
    # in process: start() adds the loop's one thread, stop() joins it
    before = threading.active_count()
    server = ServeDaemon(address="127.0.0.1:0", cache=None).start()
    try:
        assert threading.active_count() == before + 1
        assert served_alongside(server) == JOB_DONE
        assert threading.active_count() == before + 1
    finally:
        server.stop()
    assert threading.active_count() == before

    # ``repro serve``: the whole process is one OS thread while serving
    if not Path("/proc/self/task").is_dir():
        pytest.skip("needs /proc to count a process's threads")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1",
               # numpy's BLAS keeps a native pool of its own; pin it to
               # the calling thread so only the daemon's threads count
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket",
         "127.0.0.1:0", "--no-cache", "--journal", ""],
        cwd=str(tmp_path), env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        address = line.split("listening on ", 1)[1].split()[0]
        tasks = Path(f"/proc/{proc.pid}/task")
        with ServeClient(address, client="counter") as link:
            job_id = link.submit(link.request(
                systems=("G", "BV"), workloads=("pagerank",),
                datasets=("twitter",), cluster_sizes=(16, 32),
                dataset_size="tiny"))
            running = len(list(tasks.iterdir()))
            assert link.wait(job_id, timeout=120)["state"] == JOB_DONE
            idle = len(list(tasks.iterdir()))
            link.shutdown()
        assert proc.wait(timeout=60) == 0
        assert (running, idle) == (1, 1)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
