"""Helpers shared by the workloads: timing summaries and process memory."""

from __future__ import annotations

import math
import resource
import statistics

__all__ = [
    "RunResult", "latency_metrics", "nearest_rank", "op_metrics", "peak_rss_mb",
    "run_pair",
]


class RunResult:
    """What one workload run reports back to ``run.py``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: metric name -> value (units come from the definition)
        self.metrics: dict[str, float] = {}
        #: free-form detail written to the results file
        self.info: dict = {}

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)


def run_pair(plain, traced, traced_first: bool) -> tuple:
    """``(plain(), traced())``, calling ``traced`` first when asked.

    Traced runs alternate with their untraced twins so that drift in the
    machine's speed does not land on one side of the overhead ratio.
    """
    if traced_first:
        second = traced()
        return plain(), second
    first = plain()
    return first, traced()


def nearest_rank(values, q: float) -> float:
    """The ``q`` quantile by nearest rank (the maximum for small samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_metrics(op_seconds, jobs_per_op: float, requests_per_op: float,
               p50_s: float, p99_s: float) -> dict:
    """The end-to-end metrics every workload reports, from its timings.

    ``op_seconds`` holds one wall time per repeated unit of work (a
    training epoch, a pass over the comparison matrix, one serving round),
    each scheduling ``jobs_per_op`` jobs and serving ``requests_per_op``
    requests.  Rates come from the median unit, so one slow unit does not
    move them; ``p50_s`` and ``p99_s`` are the request latency quantiles.
    """
    epoch_s = statistics.median(op_seconds)
    return {
        "epoch_s": epoch_s,
        "jobs_per_s": jobs_per_op / epoch_s,
        "requests_per_s": requests_per_op / epoch_s,
        "request_p50_ms": 1e3 * p50_s,
        "request_p99_ms": 1e3 * p99_s,
    }


def latency_metrics(op_seconds, latencies, jobs_per_op: float) -> dict:
    """:func:`op_metrics` from one latency sample per request."""
    return op_metrics(op_seconds, jobs_per_op, len(latencies) / len(op_seconds),
                      statistics.median(latencies),
                      nearest_rank(latencies, 0.99))
