"""The benchmark-as-a-service daemon: one socket, one warm cache, many clients.

``repro serve`` starts a long-lived process that accepts experiment
submissions over a local stream socket (a unix path, or ``host:port``
on loopback for environments without ``AF_UNIX``). One ``selectors``
event loop owns everything — the listening socket, each connection's
read and write buffers, the :class:`~repro.serve.queue.FairQueue`, the
job registry, the :class:`~repro.serve.stats.ServerStats` and the
:class:`~repro.serve.scheduler.JobRunner` — so no state is shared and
nothing is locked. The service order is exactly the queue's
deterministic policy, and a served grid is bit-equal to the one-shot
``repro grid`` a client would have run alone.

Lifecycle of a submission::

    submit ──admission──▶ queued ──fair order──▶ running ──▶ done
        │ (queue-full → retry_after,                │
        │  or shed lower-priority queued work)      │
        └── cancel / deadline / shed ──▶ cancelled ─┘──▶ failed

Cells run inline on the loop. After each cell the runner *pumps* the
loop — a zero-timeout ``select`` that answers ready requests but never
starts a job — so ``cancel``, a passed deadline and ``shutdown`` stop a
running job at its next cell boundary, its completed payload prefix
still streamable. A ``wait`` parks its connection until the job is
terminal (answered at once, before the next job is taken) or its
timeout passes. Replies leave each connection in request order, and a
connection with an unsent reply is not read, so a client that never
reads cannot grow the daemon's buffers.

Two ways down. ``shutdown`` (or :meth:`ServeDaemon.stop`) drains
nothing: the running job stops at its next boundary and queued jobs
fail with a clean error. ``drain`` stops admissions (submissions answer
``draining``), lets the running job and the whole queue finish, then
shuts the daemon down. Either way the daemon writes its own journal —
``_server.jsonl`` with meta ``kind="server"``, per-job spans,
queue-wait/service/latency histograms, and the sheds / deadline-expiry
/ cache-eviction counters — before returning.
"""

from __future__ import annotations

import selectors
import socket
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..obs import Tracer
from ..obs.hostclock import host_now
from .protocol import (
    DEADLINE_EXCEEDED,
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Job,
    JobRequest,
    ProtocolError,
    dumps_message,
    error_response,
    ok_response,
    parse_frame,
    wait_timeout,
)
from .queue import FairQueue
from .scheduler import JobRunner
from .stats import ServerStats, server_observation

__all__ = ["ServeDaemon", "parse_address", "DEFAULT_SOCKET"]

#: the CLI's default rendezvous point, relative to the working directory
DEFAULT_SOCKET = ".repro-serve.sock"

#: bytes asked of one ready client socket per read
_RECV_BYTES = 256 * 1024


def parse_address(text: str) -> Tuple[str, object]:
    """Classify an address string: a unix socket path or ``host:port``.

    Anything containing a path separator (or with no ``:`` at all) is a
    filesystem path; ``host:port`` with a numeric port is TCP on that
    interface (use ``127.0.0.1:0`` to let the OS pick a test port).
    """
    if "/" in text or ":" not in text:
        return ("unix", text)
    host, _, port = text.rpartition(":")
    try:
        return ("tcp", (host, int(port)))
    except ValueError:
        return ("unix", text)


class _Conn:
    """One client connection: buffered frames in, buffered replies out."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rbuf = bytearray()
        self.scanned = 0  # bytes of rbuf already searched for a newline
        self.wbuf = bytearray()
        #: a ``wait`` held until its job is terminal: (job, host deadline)
        self.parked: Optional[Tuple[Job, float]] = None
        self.closing = False  # hang up once wbuf is sent
        self.closed = False


class ServeDaemon:
    """The serving process: one event loop over sockets, queue and runner."""

    def __init__(
        self,
        address: str = DEFAULT_SOCKET,
        cache: Union[None, str, Path] = None,
        jobs: int = 1,
        max_queue_cells: int = 256,
        journal_path: Union[None, str, Path] = None,
        cache_budget: Optional[int] = None,
        default_deadline: float = 0.0,
    ) -> None:
        if default_deadline < 0:
            raise ValueError("default_deadline must be >= 0 host seconds")
        self.journal_path = Path(journal_path) if journal_path else None
        self.start_host = host_now()
        self.tracer = Tracer(lambda: host_now() - self.start_host)
        self.stats = ServerStats(start_host=self.start_host)
        self.runner = JobRunner(cache, jobs=jobs, cache_budget=cache_budget)
        self.queue = FairQueue(max_cells=max_queue_cells)
        #: host-seconds budget stamped on jobs that carry none of their own
        self.default_deadline = default_deadline
        self.jobs: Dict[str, Job] = {}
        self._seq = 0
        self._stopping = False
        self._draining = False
        self._conns: List[_Conn] = []

        kind, target = parse_address(address)
        self._socket_path = Path(str(target)) if kind == "unix" else None
        if self._socket_path is not None:
            if self._socket_path.exists():
                self._socket_path.unlink()
            self._listener = socket.create_server(
                str(target), family=socket.AF_UNIX)
            self.address = str(target)
        else:
            self._listener = socket.create_server(target)  # type: ignore[arg-type]
            host, port = self._listener.getsockname()[:2]
            self.address = f"{host}:{port}"
        # stop() writes one byte to _wake_w; the loop watches _wake_r
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.setblocking(False)
        for sock in (self._listener, self._wake_r):
            self._selector.register(sock, selectors.EVENT_READ)
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ServeDaemon":
        """Run the loop on one background thread; returns ``self``.

        For in-process tests only (``repro serve`` and the benchmark run
        :meth:`serve_forever` in their own process). The thread is also
        the root the RPL021–RPL024 concurrency rules trace from.
        """
        self._thread = threading.Thread(
            target=self.serve_forever, name="serve-loop", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the loop on this thread until shutdown, drain or stop().

        The ``repro serve`` path, which starts no thread. The journal is
        written and every socket closed before this returns.
        """
        try:
            while not self._stopping:
                if len(self.queue) == 0:
                    if self._draining:
                        break  # admissions closed and the backlog served
                    # idle: with nothing queued or running no wait can
                    # be parked, so sleep until a socket is ready
                    self._poll(None)
                else:
                    self._poll()  # answer what is ready, then serve
                    job = None if self._stopping else self.queue.take()
                    if job is not None:
                        self._serve(job)
        finally:
            self._finish()

    def stop(self) -> None:
        """Stop the loop, wait for it, and release the wake-up socket.

        One byte on the wake-up socketpair tells the loop; this method
        touches nothing the loop owns. The in-flight job (if any) is
        cancelled cooperatively at its next cell boundary; still-queued
        jobs fail with a clean error payload. Use the ``drain`` op to
        finish the backlog instead. Called before the loop runs, it
        makes the loop exit on its first pass.
        """
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # the loop is gone (its end closed) or already woken
        if self._thread is not None:
            self._thread.join()
        self._wake_w.close()

    def _request_stop(self) -> None:
        self._stopping = True
        # the in-flight job stops at its next cell boundary instead of
        # holding the shutdown hostage
        for job in self.jobs.values():
            if job.state == JOB_RUNNING:
                job.cancel_requested = True

    def _finish(self) -> None:
        self._stopping = True
        for job in self.jobs.values():
            if not job.done:  # a clean error payload instead of limbo
                job.state = JOB_FAILED
                job.error = "daemon stopped before the job was served"
                job.finished_host = host_now()
                self.stats.record_job(job)
        self._settle_waits()
        for conn in list(self._conns):
            self._close(conn)
        self._selector.close()
        self._listener.close()
        self._wake_r.close()
        if self._socket_path is not None and self._socket_path.exists():
            self._socket_path.unlink()
        if self.journal_path is not None:
            obs = server_observation(
                self.stats, self.address, tracer=self.tracer,
                evictions=self._evictions(),
            )
            obs.journal().write(self.journal_path)

    def _evictions(self) -> int:
        cache = self.runner.cache
        return cache.evictions if cache is not None else 0

    # -- the loop -----------------------------------------------------------

    def _poll(self, timeout: Optional[float] = 0.0) -> None:
        """One select pass: service every ready socket, settle waits.

        With the default zero timeout this is the pump the runner calls
        at each cell boundary: it answers requests, never starts a job.
        """
        for key, events in self._selector.select(timeout):
            if key.fileobj is self._listener:
                self._accept()
            elif key.fileobj is self._wake_r:
                self._request_stop()
            else:
                self._service(key.data, events)
        self._settle_waits()

    def _serve(self, job: Job) -> None:
        """Run one job taken from the queue to a terminal state."""
        if job.expired(host_now()):
            # never started: cancel in place of serving
            job.state = JOB_CANCELLED
            job.error = f"{DEADLINE_EXCEEDED} before start"
        else:
            job.state = JOB_RUNNING
            job.started_host = host_now()
            request = job.request
            with self.tracer.span(
                "job", cat="serve", job=job.id, client=request.client,
                cells=request.cells, priority=request.priority,
            ):
                self.runner.run_job(job, self._poll)
        job.finished_host = host_now()
        self.stats.record_job(job)
        self._settle_waits()

    def _settle_waits(self) -> None:
        """Answer every parked wait whose job is terminal or time is up."""
        now = host_now()
        for conn in list(self._conns):
            if conn.parked is None:
                continue
            job, deadline = conn.parked
            if job.done:
                response = ok_response(**job.status_dict())
            elif now >= deadline:
                response = error_response(
                    "timeout", f"job {job.id} still {job.state}",
                    **job.status_dict(),
                )
            else:
                continue
            conn.parked = None
            self._reply(conn, response)
            self._process(conn)  # frames that arrived behind the wait

    # -- connections --------------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return  # the client gave up before we got to it
        sock.setblocking(False)
        conn = _Conn(sock)
        self._conns.append(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _service(self, conn: _Conn, events: int) -> None:
        if events & selectors.EVENT_WRITE:
            self._flush(conn)
        else:
            try:
                data = conn.sock.recv(_RECV_BYTES)
            except BlockingIOError:
                return
            except OSError:
                data = b""
            if not data:
                self._close(conn)  # EOF or reset: the client is gone
                return
            conn.rbuf += data
            if len(conn.rbuf) > MAX_LINE_BYTES:
                self._hang_up(conn, f"frame exceeds {MAX_LINE_BYTES} bytes")
                return
        self._process(conn)

    def _process(self, conn: _Conn) -> None:
        """Answer buffered frames in order until a reply has to wait."""
        while not (conn.closed or conn.closing or conn.wbuf or conn.parked):
            end = conn.rbuf.find(b"\n", conn.scanned)
            if end < 0:
                conn.scanned = len(conn.rbuf)
                return
            line = bytes(conn.rbuf[:end + 1])
            del conn.rbuf[:end + 1]
            conn.scanned = 0
            try:
                message = parse_frame(line)
            except ProtocolError as exc:
                # the stream may be desynchronized: answer once, hang up
                self._hang_up(conn, str(exc))
                return
            try:
                response = self._answer(conn, message)
            except ProtocolError as exc:
                response = error_response("protocol", str(exc))
            if response is None:
                return  # a parked wait: _settle_waits answers it
            if message.get("op") == "shutdown":
                conn.closing = True
            self._reply(conn, response)

    def _hang_up(self, conn: _Conn, reason: str) -> None:
        conn.closing = True
        self._reply(conn, error_response("protocol", reason))

    def _reply(self, conn: _Conn, response: dict) -> None:
        conn.wbuf += dumps_message(response)
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        """Send what the socket takes now; the rest waits for EVENT_WRITE."""
        try:
            del conn.wbuf[:conn.sock.send(conn.wbuf)]
        except BlockingIOError:
            pass
        except OSError:
            self._close(conn)
            return
        if conn.closing and not conn.wbuf:
            self._close(conn)
            return
        # an unsent reply stops reading this client until it drains
        events = selectors.EVENT_WRITE if conn.wbuf else selectors.EVENT_READ
        if self._selector.get_key(conn.sock).events != events:
            self._selector.modify(conn.sock, events, conn)

    def _close(self, conn: _Conn) -> None:
        if not conn.closed:
            conn.closed = True
            self._selector.unregister(conn.sock)
            conn.sock.close()
            self._conns.remove(conn)

    # -- protocol dispatch --------------------------------------------------

    def _answer(self, conn: _Conn, message: dict) -> Optional[dict]:
        """One request's response; ``None`` when a ``wait`` parks."""
        op = message.get("op")
        if op == "ping":
            return ok_response(version=PROTOCOL_VERSION, address=self.address)
        if op == "submit":
            return self._submit(message)
        if op == "status":
            job = self._job_for(message)
            position = (self.queue.position(job.id)
                        if job.state == JOB_QUEUED else None)
            return ok_response(**job.status_dict(position=position))
        if op == "results":
            return self._results(message)
        if op == "wait":
            return self._wait(conn, message)
        if op == "cancel":
            return self._cancel(message)
        if op == "stats":
            return ok_response(
                stats=self.stats.snapshot(evictions=self._evictions()),
                queue={
                    "depth": len(self.queue),
                    "backlog_cells": self.queue.backlog_cells(),
                    "max_cells": self.queue.max_cells,
                },
                draining=self._draining,
                uptime=host_now() - self.start_host,
            )
        if op == "drain":
            # graceful: close admissions now; the loop serves the
            # backlog and then shuts the daemon down itself
            self._draining = True
            return ok_response(draining=True, queued=len(self.queue))
        if op == "shutdown":
            self._request_stop()
            return ok_response(stopping=True)
        return error_response("unknown-op", f"unknown op {op!r}")

    def _job_for(self, message: dict) -> Job:
        job_id = message.get("job")
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r}")
        return job

    def _submit(self, message: dict) -> dict:
        request = JobRequest.from_dict(message.get("job"))
        if self._stopping:
            return error_response("shutting-down", "daemon is stopping")
        if self._draining:
            return error_response("draining", "daemon is draining")
        self._seq += 1
        job = Job(
            id=f"j-{self._seq:06d}", request=request, seq=self._seq,
            submitted_host=host_now(),
        )
        deadline = request.deadline or self.default_deadline
        if deadline > 0:
            job.deadline_host = job.submitted_host + deadline
        retry_after = self.queue.offer(job)
        if retry_after is not None:
            # before bouncing a higher-priority job, displace queued
            # lower-class work (the shed victims get a clean error)
            shed = self.queue.shed_for(job)
            for victim in shed:
                victim.error = "shed: displaced by higher-priority submission"
                victim.finished_host = host_now()
                self.stats.shed += 1
                self.stats.record_job(victim)
            if shed:
                retry_after = self.queue.offer(job)
        if retry_after is not None:
            self._seq -= 1  # rejected submissions do not consume ids
            self.stats.record_rejection(request.client)
            return error_response(
                "queue-full",
                f"queue holds {self.queue.backlog_cells()} of "
                f"{self.queue.max_cells} cells",
                retry_after=retry_after,
            )
        self.jobs[job.id] = job
        position = self.queue.position(job.id)
        return ok_response(job=job.id, position=position, cells=request.cells)

    def _results(self, message: dict) -> dict:
        after = message.get("after", 0)
        if not isinstance(after, int) or isinstance(after, bool) or after < 0:
            raise ProtocolError(f"bad results cursor {after!r}")
        job = self._job_for(message)
        payloads = job.payloads[after:]
        next_cursor = after + len(payloads)
        return ok_response(
            job=job.id, state=job.state, payloads=payloads, next=next_cursor,
            complete=job.done and next_cursor >= len(job.payloads),
            error_message=job.error,
        )

    def _wait(self, conn: _Conn, message: dict) -> Optional[dict]:
        timeout = wait_timeout(message)
        job = self._job_for(message)
        if job.done:
            return ok_response(**job.status_dict())
        conn.parked = (job, host_now() + timeout)
        return None

    def _cancel(self, message: dict) -> dict:
        job = self._job_for(message)
        if job.done:
            return error_response(
                "not-cancellable", f"job {job.id} already {job.state}"
            )
        if job.state == JOB_RUNNING:
            # cooperative: the runner sees the flag at the next cell
            # boundary and lands the job in ``cancelled``
            job.cancel_requested = True
            return ok_response(cancelling=True, **job.status_dict())
        self.queue.cancel(job.id)
        job.finished_host = host_now()
        self.stats.record_job(job)
        return ok_response(**job.status_dict())
