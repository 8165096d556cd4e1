"""``serve``: a two-tenant ``repro serve`` daemon under a closed loop.

The daemon runs as its own process, started the way users start it
(``python -m repro serve``), with two tenants on 256 processors:

* ``rl`` -- the kernel policy at MAX_OBSV_SIZE 128, its initial weights
  (from ``POLICY_SEED``) saved to a policy file during set-up;
* ``batch`` -- SJF with EASY backfilling.

Each round submits one Lublin-1 stream per tenant through
``repro.serve.loadgen.run_closed_loop`` (one request outstanding,
round-robin over two connections, as ``repro submit`` callers wait for
each reply), then runs both tenants to completion.  The round ends with
``advance`` to a time past every job's end rather than ``drain``: the
work is the same (every queued job is decided and finished), but a
drained tenant's horizon stays lifted, so it would start later arrivals
the moment they are submitted and no queue would form again.

The policy is part of the daemon's configuration, not of its input, so
its weights do not follow ``--seed``: which jobs an untrained policy
prefers decides how far its queue grows, and per-seed weights moved the
round time by a third.

A run makes ``ROUNDS`` rounds on one daemon, each on its own pair of
stream windows sampled from the seed's trace and shifted past the round
before in time and job ids.  How far the backlog grows depends on the
window (one window alone can double a round's time), so the median round
covers many windows.  The load generator and the daemon are kept on one
core: the loop is strictly one request at a time, and cross-core wake-ups
in a virtual machine otherwise move request latency by a third.

Set-up builds the streams and the policy file and starts the daemon,
three times (median); the rounds are timed.  A traced run also replays
every round in process through ``SchedulerRouter.dispatch`` with the
daemon's decode/encode around each request, untraced and traced in turn,
for the layer split and the tracing overhead; ``serve.wire_s`` is the
socket round time minus the untraced in-process round time.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from repro import EnvConfig, load_trace
from repro.config import ServeConfig, TenantConfig
from repro.nn import make_policy
from repro.schedulers import RLSchedulerPolicy
from repro.serve import ServeClient, ServeError, run_closed_loop, trace_jobs
from repro.serve import protocol
from repro.serve.service import SchedulerRouter

from common import RunResult, op_metrics, run_pair

N_TRACE = 10_000
JOBS_PER_TENANT = 2048
N_PROCS = 256
MAX_OBSV_SIZE = 128
POLICY_SEED = 0
SETUP_REPEATS = 3
ROUNDS = 28
#: rounds a traced run also replays in process (twice: untraced, traced)
REPLAY_ROUNDS = 12
#: job ids of round r are offset by r * ID_STRIDE
ID_STRIDE = 1_000_000
TENANTS = ("rl", "batch")
#: stop early only when rounds take this many times the run's seconds
SAFETY_FACTOR = 3
STOP_TIMEOUT_S = 60.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "results"


def tenants(policy_path: Path) -> tuple[TenantConfig, ...]:
    return (
        TenantConfig(name="rl", scheduler="RL", policy_path=str(policy_path),
                     n_procs=N_PROCS),
        TenantConfig(name="batch", scheduler="SJF", n_procs=N_PROCS,
                     backfill="easy"),
    )


class Daemon:
    """A ``repro serve`` subprocess, reaped with its own peak RSS."""

    def __init__(self, policy_path: Path, log_path: Path):
        cmd = [sys.executable, "-m", "repro", "-q", "serve",
               "--host", "127.0.0.1", "--port", "0"]
        for t in tenants(policy_path):
            spec = f"{t.name}:{t.policy_path or t.scheduler}:{t.n_procs}"
            cmd += ["--tenant", spec + (f":{t.backfill}" if t.backfill else "")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.exit_code = None
        self.peak_rss_mb = None
        self.address = None
        with open(log_path, "w") as log:
            t0 = perf_counter()
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                text=True)
        line = self.proc.stdout.readline()  # the daemon's one readiness line
        self.start_s = perf_counter() - t0
        if not line.startswith("repro-serve listening on "):
            self.stop()
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self) -> None:
        """Ask for a graceful stop (kill if that fails) and reap."""
        if self.exit_code is not None:
            return
        try:
            if self.address is None:
                raise ServeError("never bound")
            with ServeClient(*self.address) as client:
                client.drain(stop=True)
        except (ServeError, OSError):
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        """``wait4`` the daemon so its own ``ru_maxrss`` is known."""
        deadline = perf_counter() + STOP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.exit_code = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()


def set_up(seed: int) -> tuple[list[dict], Path, float]:
    """Every round's shifted streams, the RL policy file, the trace time."""
    t0 = perf_counter()
    trace = load_trace("Lublin-1", n_jobs=N_TRACE, seed=seed)
    trace_s = perf_counter() - t0
    windows = [
        {tenant: trace_jobs(trace, JOBS_PER_TENANT, seed=(seed, r, i),
                            max_procs=N_PROCS)
         for i, tenant in enumerate(TENANTS)}
        for r in range(ROUNDS)
    ]
    # Every job of a window ends before its last arrival plus all its run
    # times, so rounds SPAN apart never overlap.
    span = 1.0 + max(jobs[-1].submit_time + sum(j.run_time for j in jobs)
                     for window in windows for jobs in window.values())
    streams = [shifted(window, r, span) for r, window in enumerate(windows)]
    WORK.mkdir(exist_ok=True)
    policy_path = WORK / f"serve-policy-seed{seed}.npz"
    env_config = EnvConfig(max_obsv_size=MAX_OBSV_SIZE)
    network = make_policy("kernel", MAX_OBSV_SIZE, env_config.job_features,
                          seed=POLICY_SEED)
    RLSchedulerPolicy(network, n_procs=N_PROCS, env_config=env_config).save(
        policy_path)
    return streams, policy_path, trace_s


def shifted(window: dict, r: int, span: float) -> dict:
    """Round ``r``'s copy of a window: arrivals from ``r * span`` on, and
    an ``until`` past every job's end."""
    out = {}
    for tenant, jobs in window.items():
        moved = []
        for job in jobs:
            job = job.copy()
            job.submit_time += r * span
            job.job_id += r * ID_STRIDE
            moved.append(job)
        out[tenant] = moved
    return {"jobs": out, "until": (r + 1) * span}


def socket_round(address, stream: dict, index: int, result: RunResult) -> dict:
    """One closed-loop round over the socket, run to completion."""
    t0 = perf_counter()
    report = run_closed_loop(*address, stream["jobs"], drain=False)
    with ServeClient(*address) as client:
        for tenant in TENANTS:
            client.advance(stream["until"], tenant=tenant)
        report["round_s"] = perf_counter() - t0
        report["tenants"] = {t: client.stats(tenant=t) for t in TENANTS}
    result.attempted += report["requests"] + 2 * len(TENANTS)
    for tenant, stats in report["tenants"].items():
        if (stats["submitted"] != stats["finished"]
                or stats["pending"] or stats["running"]):
            result.fail(f"round {index}: tenant {tenant} finished "
                        f"{stats['finished']} of {stats['submitted']} jobs")
    return report


def request_lines(stream: dict) -> list[bytes]:
    """A round's requests as the load generator puts them on the wire."""
    v = protocol.PROTOCOL_VERSION
    messages = [
        {"v": v, "op": "submit", "tenant": tenant, "job": protocol.job_to_wire(job)}
        for pair in zip(*(stream["jobs"][t] for t in TENANTS))  # round-robin
        for tenant, job in zip(TENANTS, pair)
    ]
    messages += [{"v": v, "op": "advance", "tenant": tenant,
                  "until": stream["until"]} for tenant in TENANTS]
    return [protocol.encode(m) for m in messages]


def replay_round(router: SchedulerRouter, lines: list[bytes]) -> float:
    """One round in process: the daemon's decode, dispatch and encode."""
    t0 = perf_counter()
    for line in lines:
        response = router.dispatch(protocol.decode(line))
        protocol.encode(response)
    return perf_counter() - t0


def run(seed: int, seconds: float, tracer) -> RunResult:
    result = RunResult()
    # One core for the load generator and (by inheritance) every daemon.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    build_s, trace_s, daemons = [], [], []
    log_path = WORK / f"serve-daemon-seed{seed}.log"
    try:
        for i in range(SETUP_REPEATS):
            t0 = perf_counter()
            streams, policy_path, trace_time = set_up(seed)
            build_s.append(perf_counter() - t0)
            trace_s.append(trace_time)
            daemons.append(Daemon(policy_path, log_path))
            if i < SETUP_REPEATS - 1:
                daemons[-1].stop()
        daemon = daemons[-1]

        rounds, final = [], {}
        start = perf_counter()
        try:
            for index, stream in enumerate(streams):
                if perf_counter() - start >= SAFETY_FACTOR * seconds:
                    break
                rounds.append(socket_round(daemon.address, stream, index, result))
            with ServeClient(*daemon.address) as client:
                final = {t: client.stats(tenant=t) for t in TENANTS}
        except ServeError as exc:
            result.fail(f"request failed: {exc}")
    finally:
        for d in daemons:
            d.stop()
            if d.exit_code != 0:
                result.fail(f"daemon exited with {d.exit_code}")
    if not rounds or not final:
        raise RuntimeError(f"the serving rounds did not complete: {result.errors}")

    round_s = [r["round_s"] for r in rounds]
    per_round = sum(r["requests"] for r in rounds) / len(rounds)
    result.metrics.update(op_metrics(
        round_s, per_round, per_round,
        statistics.median(r["request_latency_sec"]["p50"] for r in rounds),
        statistics.median(r["request_latency_sec"]["p99"] for r in rounds),
    ))
    result.metrics["setup_s"] = (statistics.median(build_s)
                                 + statistics.median(d.start_s for d in daemons))
    result.metrics["peak_rss_mb"] = daemon.peak_rss_mb
    decision = {q: max(s["decision_latency_sec"][q] for s in final.values())
                for q in ("p50", "p99")}
    result.info.update(
        rounds=len(rounds), requests_per_round=per_round, round_s=round_s,
        daemon_start_s=[d.start_s for d in daemons],
        decisions=sum(s["decisions"] for s in final.values()),
        decision_latency_sec=decision,
    )
    if tracer is not None:
        result.metrics.update(traced_layers(
            tracer, streams[:REPLAY_ROUNDS], policy_path, rounds))
        result.metrics["workloads.trace_s"] = statistics.median(trace_s)
        result.metrics["serve.decision_p50_us"] = 1e6 * decision["p50"]
        result.metrics["serve.decision_p99_us"] = 1e6 * decision["p99"]
    return result


def traced_layers(tracer, streams, policy_path, rounds) -> dict:
    """In-process replay of every round, untraced and traced in turn."""
    config = ServeConfig(port=0, tenants=tenants(policy_path))
    plain_router, traced_router = SchedulerRouter(config), SchedulerRouter(config)
    plain_s, traced_s, layers = [], [], []
    for index, stream in enumerate(streams):
        lines = request_lines(stream)

        def traced_round():
            with tracer.installed():
                tracer.reset()
                return replay_round(traced_router, lines)

        plain, traced = run_pair(lambda: replay_round(plain_router, lines),
                                 traced_round, traced_first=index % 2 == 1)
        plain_s.append(plain)
        traced_s.append(traced)
        pending = tracer.samples["serve.pending_at_decision"]
        layers.append({
            "serve.dispatch_s": tracer.total("serve.dispatch"),
            "serve.codec_s": tracer.total("serve.codec"),
            "sim.online_s": tracer.total("sim.online"),
            "schedulers.select_s": tracer.total("schedulers.select"),
            "schedulers.rl.select_s": tracer.total("schedulers.rl.select"),
            "schedulers.rl.rows_scored": tracer.counts["schedulers.rl.rows_scored"],
            "schedulers.decisions": tracer.counts["schedulers.decisions"],
            "serve.pending_at_decision": statistics.median(pending),
            "serve.pending_at_decision_max": max(pending),
        })
    per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    per_layer["serve.wire_s"] = statistics.median(
        r["round_s"] - plain for r, plain in zip(rounds, plain_s))
    per_layer["trace_overhead_frac"] = sum(traced_s) / sum(plain_s) - 1.0
    return per_layer
