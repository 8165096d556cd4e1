"""The repository benchmark: ``train``, ``compare`` and ``serve`` workloads.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0

``--workload all`` runs every workload in turn, each in a fresh process
(peak RSS only rises within a process), and exits non-zero if any run
fails or reports a failed operation.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps the library's layer boundaries
(``perfbench/layers.py``) and reports the per-layer metrics, including
the tracing overhead.  Every workload runs the library defaults (serial
runtime, default update path) in this one process; ``serve`` adds the
daemon as a second process.  Inputs are generated from ``--seed``.

Human-readable lines go to stdout first; the last stdout line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result with its provenance (nproc, Python and NumPy versions, seed) is
also written to ``perfbench/results/``, with the spans of a traced run.

``python3 perfbench/run.py --write-definition`` regenerates
``BENCHMARK.json`` from ``definition.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-definition", action="store_true",
                   help="write BENCHMARK.json from definition.py and exit")
    args = p.parse_args(argv)
    if not args.write_definition and args.workload is None:
        p.error("--workload is required")
    return args


def provenance(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def run_all(args) -> int:
    import definition

    summary, status = {}, 0
    for name in definition.WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            summary[name] = {"returncode": proc.returncode}
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
        if not summary[name]["correct"]:
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    import definition

    if args.write_definition:
        definition.write(ROOT / "BENCHMARK.json")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    known = {**definition.WORKLOADS, **definition.DROPPED}
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; known: {sorted(known)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds = args.seconds or definition.RUN_SECONDS

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import numpy
    import repro  # noqa: F401  (import time belongs to set-up)
    import_s = perf_counter() - t0

    module = importlib.import_module(f"workload_{args.workload}")
    tracer = None
    if args.trace:
        from layers import CONTEXTS, instrument
        from tracer import Tracer

        tracer = instrument(Tracer(contexts=CONTEXTS))
    result = module.run(args.seed, seconds, tracer)
    result.metrics["setup_s"] = result.metrics.get("setup_s", 0.0) + import_s

    wanted = definition.metric_units(per_layer=bool(args.trace))
    if args.trace:
        for name in wanted:  # a layer this workload does not exercise
            result.metrics.setdefault(name, 0.0)
    missing = [name for name in wanted if name not in result.metrics]
    if missing:
        print(f"workload {args.workload} measured no {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": float(result.metrics[name]), "unit": unit}
               for name, unit in wanted.items()}

    prov = provenance(args, numpy.__version__)
    if tracer is not None and tracer.missing:
        result.info["missing_boundaries"] = tracer.missing
    correct = result.failed == 0 and not result.errors
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {result.attempted}  failed {result.failed}")
    for error in result.errors:
        print(f"  FAILED: {error}")
    print(json.dumps({"provenance": prov}))

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "correct": correct,
                   "attempted": result.attempted, "failed": result.failed,
                   "errors": result.errors, "metrics": metrics,
                   "info": result.info}, fh, indent=1, default=float)
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.jsonl", prov)

    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
