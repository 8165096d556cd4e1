"""``compare``: the heuristic scenario matrix through ``repro.api``.

``scenario_matrix`` of FCFS, SJF, WFP3, UNICEP and F1 over lublin-256,
bursty-sdsc and lublin-256-mem, once without backfilling and once with
EASY backfilling, on 4 x 1024-job test sequences (the paper's §V-C2
length).  One pass over both matrices is the repeated unit of work.
Bursty arrivals make long queues, the memory scenario takes the
resource-vector path, and backfilling runs the shadow-time scans.

A run makes ``PASSES`` passes, each on its own input seed, so the median
pass covers several draws of traces and test windows: one draw alone
moves the pass time by about a tenth.  Pass ``p`` of ``--seed s`` uses
input seed ``(s * PASSES + p) % REFERENCE_SEEDS``; the scenario traces
are generated with it and the test sequences sampled with it.  The
per-sequence bsld of every cell was recorded for each input seed in
``reference/compare_bsld.json`` (``record_reference.py``), and a cell
fails when a value differs from it or when a job of the cell does not
complete exactly once with start >= submit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import repro.api
from repro import EvalConfig
from repro.scenarios import get_scenario
from repro.schedulers import make_scheduler

from common import (
    RunResult, latency_metrics, nearest_rank, peak_rss_mb, run_pair,
)

SCHEDULERS = ("FCFS", "SJF", "WFP3", "UNICEP", "F1")
SCENARIOS = ("lublin-256", "bursty-sdsc", "lublin-256-mem")
BACKFILL = {"none": False, "easy": "easy"}
N_SEQUENCES = 4
LENGTH = 1024
REFERENCE_SEEDS = 64
REFERENCE = Path(__file__).resolve().parent / "reference" / "compare_bsld.json"
#: values must match the recorded reference to this relative tolerance
RTOL = 1e-9
PASSES = 4
#: stop early only when passes take this many times the run's seconds
SAFETY_FACTOR = 3


def input_seeds(seed: int) -> list[int]:
    return [(seed * PASSES + p) % REFERENCE_SEEDS for p in range(PASSES)]


def set_up(s: int) -> dict:
    """Schedulers, scenarios seeded with input seed ``s``, eval config."""
    scenarios = []
    for name in SCENARIOS:
        scen = get_scenario(name)
        scenarios.append(dataclasses.replace(
            scen, workload=dataclasses.replace(scen.workload, seed=s)))
    return {
        "schedulers": [make_scheduler(n) for n in SCHEDULERS],
        "scenarios": scenarios,
        "config": EvalConfig(n_sequences=N_SEQUENCES, sequence_length=LENGTH,
                             seed=s),
    }


def matrix_pass(inputs: dict) -> dict:
    """``{backfill: {scenario: {scheduler: [bsld per sequence]}}}``."""
    out = {}
    for label, backfill in BACKFILL.items():
        matrix = repro.api.scenario_matrix(
            inputs["schedulers"], inputs["scenarios"], metric="bsld",
            backfill=backfill, config=inputs["config"],
        )
        out[label] = {
            scen: {sched: [float(v) for v in values.values]
                   for sched, values in row.items()}
            for scen, row in matrix.items()
        }
    return out


class Checker:
    """Wraps ``run_scheduler`` as the matrix calls it: times every
    simulated sequence and checks that each job completes exactly once
    with start >= submit.  Checking time is kept apart so it can be
    taken out of the measurement."""

    def __init__(self, scenarios):
        self.cluster_names = {s.cluster: s.name for s in scenarios}
        self.latencies: list[float] = []
        self.jobs = 0
        self.check_s = 0.0
        self.bad_cells: set[tuple] = set()

    @contextlib.contextmanager
    def installed(self):
        original = repro.api.run_scheduler

        def checked(jobs, cluster, scheduler, backfill=False):
            t0 = perf_counter()
            completed = original(jobs, cluster, scheduler, backfill=backfill)
            t1 = perf_counter()
            self.latencies.append(t1 - t0)
            self.jobs += len(completed)
            if not self.valid(jobs, completed):
                label = next(k for k, v in BACKFILL.items() if v == backfill)
                self.bad_cells.add(
                    (label, self.cluster_names.get(cluster, str(cluster)),
                     scheduler.name))
            self.check_s += perf_counter() - t1
            return completed

        repro.api.run_scheduler = checked
        try:
            yield self
        finally:
            repro.api.run_scheduler = original

    @staticmethod
    def valid(jobs, completed) -> bool:
        ids = [j.job_id for j in completed]
        return (len(ids) == len(set(ids)) == len(jobs)
                and set(ids) == {j.job_id for j in jobs}
                and all(j.start_time >= j.submit_time for j in completed))


def timed_pass(inputs: dict, checker: Checker, tracer=None) -> tuple:
    """One matrix pass and its time, checking time taken out."""
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
            tracer.reset()
        stack.enter_context(checker.installed())
        t0 = perf_counter()
        values = matrix_pass(inputs)
        return values, perf_counter() - t0 - checker.check_s


def load_reference(seeds: list[int]) -> list[dict]:
    with open(REFERENCE) as fh:
        recorded = json.load(fh)["seeds"]
    return [recorded[str(s)] for s in seeds]


def cells_differing(values: dict, reference: dict) -> list[tuple]:
    bad = []
    for label, matrix in reference.items():
        for scen, row in matrix.items():
            for sched, ref in row.items():
                got = values.get(label, {}).get(scen, {}).get(sched)
                if got is None or len(got) != len(ref) or not all(
                        math.isclose(g, r, rel_tol=RTOL, abs_tol=0.0)
                        for g, r in zip(got, ref)):
                    bad.append((label, scen, sched))
    return bad


def run(seed: int, seconds: float, tracer) -> RunResult:
    result = RunResult()
    seeds = input_seeds(seed)
    setup_times, all_inputs = [], []
    for s in seeds:
        t0 = perf_counter()
        all_inputs.append(set_up(s))
        setup_times.append(perf_counter() - t0)
    t0 = perf_counter()
    references = load_reference(seeds)
    load_s = perf_counter() - t0
    result.metrics["setup_s"] = statistics.median(setup_times) + load_s
    n_cells = len(BACKFILL) * len(SCENARIOS) * len(SCHEDULERS)

    pass_times, traced_times, layers, latencies, jobs = [], [], [], [], 0
    start = perf_counter()
    for index, (s, inputs, reference) in enumerate(
            zip(seeds, all_inputs, references)):
        if perf_counter() - start >= SAFETY_FACTOR * seconds:
            break
        checker = Checker(inputs["scenarios"])
        if tracer is None:
            values, elapsed = timed_pass(inputs, checker)
        else:
            traced = Checker(inputs["scenarios"])
            (values, elapsed), (traced_values, traced_elapsed) = run_pair(
                lambda: timed_pass(inputs, checker),
                lambda: timed_pass(inputs, traced, tracer),
                traced_first=index % 2 == 1)
            traced_times.append(traced_elapsed)
            layers.append(pass_layers(tracer))
            if traced_values != values or traced.bad_cells:
                result.fail(f"input seed {s}: traced pass differs from untraced")
        pass_times.append(elapsed)
        latencies += checker.latencies
        jobs += checker.jobs
        bad = set(cells_differing(values, reference)) | checker.bad_cells
        result.attempted += n_cells
        if bad:
            result.fail(f"input seed {s}: cells differ from the reference or "
                        f"lost jobs: {sorted(bad)}", count=len(bad))

    result.metrics.update(latency_metrics(
        pass_times, pass_times, jobs / len(pass_times)))
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    result.info.update(
        pass_times=pass_times, input_seeds=seeds,
        sequences_simulated=len(latencies),
        sequence_p50_s=statistics.median(latencies),
        sequence_p99_s=nearest_rank(latencies, 0.99),
    )
    if tracer is not None:
        per_layer = {k: statistics.median(d[k] for d in layers)
                     for k in layers[0]}
        per_layer["trace_overhead_frac"] = (
            sum(traced_times) / sum(pass_times) - 1.0)
        result.info["traced_pass_s"] = statistics.median(traced_times)
        result.metrics.update(per_layer)
    return result


def pass_layers(tracer) -> dict:
    """Per-layer metrics of one traced matrix pass."""
    return {
        "sim.engine_s": tracer.total("sim.engine"),
        "sim.events": tracer.counts["sim.events"],
        "sim.metric_s": tracer.total("sim.metric"),
        "schedulers.select_s": tracer.total("schedulers.select"),
        "schedulers.decisions": tracer.counts["schedulers.decisions"],
        "workloads.trace_s": tracer.total("workloads.trace"),
        "workloads.sample_s": tracer.total("workloads.sample"),
    }
