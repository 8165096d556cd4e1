"""Process-pool backend: persistent multiprocessing workers over pipes.

Workers are long-lived ``multiprocessing.Process`` children, one duplex
pipe each.  Each worker runs a command loop against its private ``state``
dict, so expensive setup (env shards, schedulers, policy weights) is paid
once per run via ``broadcast`` and every subsequent dispatch ships only
the small per-call payload (actions in, observations out).

``map`` is chunked and load-balanced: chunks are handed to whichever
worker returns first (:func:`multiprocessing.connection.wait`), and the
chunk index travels with the result so the caller always sees results in
task order — worker count and scheduling jitter are unobservable.

Every message, in either direction, is pickled once and moved with
``send_bytes``/``recv_bytes``.  Arguments common to several workers
(``scatter(shared=...)``, ``broadcast``) are pickled once per call and
the same bytes are written to every pipe.  A worker encodes its reply
before writing it, so an unencodable result comes back as an error
instead of a half-written message.

Task functions and their arguments must be picklable; define worker
functions at module top level.  Exceptions raised in a worker come back
pickled and re-raise in the parent as :class:`WorkerError`.

Telemetry piggybacks on this protocol: when the parent's telemetry is
enabled at spawn time, every worker activates its own registry and every
reply carries the worker's snapshot *delta* as a third element.  The
parent absorbs deltas under worker-labelled metric names as replies
drain, so per-worker telemetry (IPC queue wait, task and
encode time, plus whatever the task functions record) aggregates without
any extra round trips.  Both sides count the bytes they actually write
(``runtime.ipc.bytes_inline``) and time their encodes
(``runtime.ipc.encode``).  When telemetry is disabled the extra element
is ``None`` and the worker loop does no timing at all.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from multiprocessing.connection import Connection, wait
from typing import Sequence

from repro.telemetry import core as _telemetry

from .backend import ExecutionBackend, TaskFn, WorkerError

__all__ = ["ProcessPoolBackend"]

#: wire sentinel: decoded message is None -> worker exits its loop
_SHUTDOWN = None


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _worker_main(conn: Connection, telemetry_enabled: bool = False) -> None:
    """Command loop: ``(fn, args, shared_wire)`` in, results out.

    Every task is answered on the pipe with ``("ok", result, tel) |
    ("err", exc, tel)``.  ``shared_wire`` is an optional pickled tuple of
    arguments common to several workers (scatter ``shared=``), prepended
    to ``args`` after decode.  ``tel`` is the worker's telemetry snapshot
    delta (or ``None`` when disabled/empty).
    """
    state: dict = {}
    reg = None
    if telemetry_enabled:
        reg = _telemetry.Telemetry(enabled=True)
        _telemetry.set_active(reg)
    perf = time.perf_counter

    def encode(payload) -> bytes:
        """Encode a reply; an unencodable *result* fails the task in
        place, so the parent still reads exactly one reply."""
        try:
            if reg is not None:
                t0 = perf()
                wire = _dumps(payload)
                # encode time/bytes for *this* reply ride the next one
                reg.add_span_time("runtime.ipc.encode", perf() - t0)
                reg.counter("runtime.ipc.bytes_inline").add(len(wire))
            else:
                wire = _dumps(payload)
            return wire
        except Exception as exc:
            err = RuntimeError(f"unencodable result: {exc}")
            return _dumps(("err", err, None))

    while True:
        try:
            if reg is not None:
                t0 = perf()
                msg = pickle.loads(conn.recv_bytes())
                reg.histogram("runtime.ipc.queue_wait_sec").record(perf() - t0)
            else:
                msg = pickle.loads(conn.recv_bytes())
        except (EOFError, KeyboardInterrupt):
            break
        if msg is _SHUTDOWN:
            break
        fn, args, shared_wire = msg
        try:
            if shared_wire is not None:
                args = tuple(pickle.loads(shared_wire)) + tuple(args)
            if reg is not None:
                t0 = perf()
                result = fn(state, *args)
                reg.add_span_time("runtime.worker.task", perf() - t0)
            else:
                result = fn(state, *args)
            reply = ("ok", result)
        except KeyboardInterrupt:
            break
        except BaseException as exc:  # ship the failure, keep the loop alive
            try:
                pickle.dumps(exc)
                reply = ("err", exc)
            except Exception:  # unpicklable exception: a plain stand-in
                reply = ("err", RuntimeError(f"{type(exc).__name__}: {exc}"))
        tel = None
        if reg is not None and reg.has_data():
            tel = reg.drain()
        conn.send_bytes(encode(reply + (tel,)))


def _map_chunk(state: dict, fn: TaskFn, tasks: list) -> list:
    """Run one chunk of map tasks against this worker's state."""
    return [fn(state, task) for task in tasks]


class ProcessPoolBackend(ExecutionBackend):
    """Persistent ``multiprocessing`` workers behind the backend contract."""

    #: seconds to wait for a worker to exit cleanly before terminating it
    JOIN_TIMEOUT = 5.0

    def __init__(self, n_workers: int = 1):
        super().__init__(n_workers)
        self._procs: list[mp.Process] = []
        self._conns: list[Connection] = []

    # -- lifecycle ------------------------------------------------------
    def _start_impl(self) -> None:
        ctx = mp.get_context()
        # Workers inherit the parent's telemetry enablement at spawn time;
        # enabling telemetry after the pool starts leaves workers dark.
        telemetry_enabled = _telemetry.enabled()
        for _ in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, telemetry_enabled),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _close_impl(self) -> None:
        for conn in self._conns:
            try:
                conn.send_bytes(_dumps(_SHUTDOWN))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=self.JOIN_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self.JOIN_TIMEOUT)
        for conn in self._conns:
            conn.close()
        self._procs, self._conns = [], []

    # -- wire helpers ---------------------------------------------------
    @staticmethod
    def _encode(msg) -> bytes:
        """Pickle one parent-side message, timing it when telemetry is on."""
        reg = _telemetry.current()
        if not reg.enabled:
            return _dumps(msg)
        t0 = time.perf_counter()
        wire = _dumps(msg)
        reg.add_span_time("runtime.ipc.encode", time.perf_counter() - t0)
        return wire

    def _send_wire(self, worker: int, wire: bytes) -> None:
        reg = _telemetry.current()
        if reg.enabled:
            reg.counter("runtime.ipc.bytes_inline").add(len(wire))
        self._conns[worker].send_bytes(wire)

    def _send_msg(
        self, worker: int, fn: TaskFn, args: tuple, shared_wire=None
    ) -> None:
        """Encode + write one message.  Encoding failures raise before
        anything is written (the worker saw nothing)."""
        self._send_wire(worker, self._encode((fn, tuple(args), shared_wire)))

    # -- dispatch -------------------------------------------------------
    @staticmethod
    def _absorb_telemetry(worker_id: int, tel) -> None:
        if tel is not None:
            _telemetry.current().absorb(tel, worker=worker_id)

    def _recv(self, worker_id: int):
        conn = self._conns[worker_id]
        try:
            status, payload, tel = pickle.loads(conn.recv_bytes())
        except EOFError:
            raise WorkerError(
                worker_id, RuntimeError("worker died mid-task (pipe closed)")
            ) from None
        self._absorb_telemetry(worker_id, tel)
        if status == "err":
            raise WorkerError(worker_id, payload) from payload
        return payload

    def _scatter_impl(
        self,
        fn: TaskFn,
        per_worker_args: Sequence[tuple],
        workers: list[int],
        shared: tuple,
    ) -> list:
        # Phase 1: post everything so workers run concurrently;
        # phase 2: collect in the caller's worker order.  Every *posted*
        # call is drained even on failure — in the send loop too — so the
        # pipes stay in sync and the backend remains usable after a task
        # error (a dead worker still surfaces as WorkerError).
        shared_wire = None
        if shared:
            try:
                shared_wire = self._encode(shared)
            except Exception as exc:
                raise WorkerError(workers[0], exc) from exc
        posted, first_err = [], None
        for w, args in zip(workers, per_worker_args):
            try:
                self._send_msg(w, fn, args, shared_wire)
            except Exception as exc:
                # Broken pipe, but also encoding failures: dumps() runs
                # before writing, so nothing reached the worker — stop
                # posting and fall through to drain what already did.
                first_err = WorkerError(w, exc)
                break
            posted.append(w)
        results = []
        for w in posted:
            try:
                results.append(self._recv(w))
            except WorkerError as err:
                results.append(None)
                first_err = first_err or err
        if first_err is not None:
            raise first_err
        return results

    def _map_impl(self, fn: TaskFn, tasks: list, chunksize: int) -> list:
        chunks = [
            (start, tasks[start : start + chunksize])
            for start in range(0, len(tasks), chunksize)
        ]
        results: list = [None] * len(tasks)
        pending = iter(chunks)
        inflight: dict[Connection, tuple[int, int]] = {}  # conn -> (worker, start)

        first_err = None

        def feed(worker_id: int) -> bool:
            nonlocal first_err
            if first_err is not None:
                return False
            entry = next(pending, None)
            if entry is None:
                return False
            start, chunk = entry
            try:
                self._send_msg(worker_id, _map_chunk, (fn, chunk))
            except Exception as exc:
                # Includes encoding failures: dumps() runs before
                # writing, so the worker saw nothing — record the error
                # and let the in-flight chunks drain normally.
                first_err = WorkerError(worker_id, exc)
                return False
            inflight[self._conns[worker_id]] = (worker_id, start)
            return True

        for w in range(self.n_workers):
            if not feed(w):
                break
        while inflight:
            for conn in wait(list(inflight)):
                worker_id, start = inflight.pop(conn)
                try:
                    chunk_result = self._recv(worker_id)
                except WorkerError as err:
                    first_err = first_err or err
                    continue  # stop feeding, drain the rest
                results[start : start + len(chunk_result)] = chunk_result
                if first_err is None:
                    feed(worker_id)
        if first_err is not None:
            raise first_err
        return results
