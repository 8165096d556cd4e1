"""``train``: PPO training epochs at the ``repro train`` default size.

Lublin-1 (4000 jobs, generated from the seed), kernel policy,
MAX_OBSV_SIZE 32, 14 trajectories of 64 jobs, default ``PPOConfig``
(80 policy + 80 value iterations, dense update) on the serial runtime:
the size shared by the ``repro train`` and ``repro study`` defaults.
Epoch 0 (reward-scale probe, lazy allocation) belongs to set-up; the
next ``TIMED_EPOCHS`` epochs are timed.  The final greedy policy is then
scored with ``repro.evaluate`` on 4 x 256-job test sequences; in a traced
run that evaluation gives the batch-engine layers (``sim.engine_s``,
``sim.events``, ``sim.metric_s``, ``schedulers.rl.*``), which are per
evaluation rather than per epoch.

A fixed epoch count keeps the timed work identical across commits: KL
early stopping makes late epochs shorter, so timing "as many epochs as
fit" would reward a faster commit with cheaper epochs.  ``--seconds``
only cuts a much slower commit short, after ``SAFETY_FACTOR`` times it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import repro
from repro import EnvConfig, EvalConfig, TrainConfig, Trainer, load_trace
from repro.schedulers import RLSchedulerPolicy

from common import RunResult, latency_metrics, peak_rss_mb, run_pair

N_JOBS = 4000
MAX_OBSV_SIZE = 32
TRAJECTORIES = 14
LENGTH = 64
VALIDATION_SEQUENCES = 3  # Trainer's held-out greedy validation set
TIMED_EPOCHS = 5
#: stop early only when epochs take this many times the run's seconds
SAFETY_FACTOR = 3
SETUP_REPEATS = 3
TEST = dict(n_sequences=4, sequence_length=256)
#: jobs simulated per epoch: rollouts plus greedy validation
JOBS_PER_EPOCH = (TRAJECTORIES + VALIDATION_SEQUENCES) * LENGTH


def build(seed: int) -> tuple:
    """The trace and a fresh trainer; returns them with the trace time."""
    t0 = perf_counter()
    trace = load_trace("Lublin-1", n_jobs=N_JOBS, seed=seed)
    trace_s = perf_counter() - t0
    trainer = Trainer(
        trace,
        env_config=EnvConfig(max_obsv_size=MAX_OBSV_SIZE),
        train_config=TrainConfig(
            epochs=16,
            trajectories_per_epoch=TRAJECTORIES,
            trajectory_length=LENGTH,
            seed=seed,
        ),
    )
    return trace, trainer, trace_s


def set_up(seed: int, copies: int) -> tuple[list, float, list[float]]:
    """Build ``copies`` trainers, ``SETUP_REPEATS`` times; run epoch 0.

    Returns the trace and trainers of the last repeat, the median set-up
    time (construction repeated, epoch 0 once per trainer) and the trace
    build times.
    """
    construct, trace_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        built = [build(seed) for _ in range(copies)]
        construct.append(perf_counter() - t0)
        trace_times.extend(b[2] for b in built)
        if _ < SETUP_REPEATS - 1:
            for _trace, trainer, _t in built:
                trainer.close()
    t0 = perf_counter()
    for _trace, trainer, _t in built:
        trainer.run_epoch(0)
    first_epochs = perf_counter() - t0
    setup_s = statistics.median(construct) + first_epochs
    return built, setup_s, trace_times


def timed_epoch(trainer, epoch: int) -> tuple:
    t0 = perf_counter()
    record = trainer.run_epoch(epoch)
    return record, perf_counter() - t0


def traced_epoch(tracer, trainer, epoch: int) -> tuple:
    with tracer.installed():
        tracer.reset()
        return timed_epoch(trainer, epoch)


def check_stats(record, result: RunResult) -> None:
    stats = record.stats
    values = (stats.policy_loss, stats.value_loss, stats.kl)
    if not all(math.isfinite(v) for v in values):
        result.fail(f"epoch {record.epoch}: non-finite loss or KL {values}")


def evaluate_policy(trainer, trace, seed: int, result: RunResult) -> float:
    policy = RLSchedulerPolicy(
        trainer.policy,
        n_procs=trainer.cluster_spec.n_procs,
        env_config=trainer.env_config,
        preset=trainer.policy_preset,
    )
    bsld = float(repro.evaluate(
        policy, trace, metric="bsld", config=EvalConfig(seed=seed, **TEST)
    ))
    result.attempted += 1
    if not math.isfinite(bsld):
        result.fail(f"policy_bsld is not finite: {bsld}")
    return bsld


def epoch_layers(tracer) -> dict:
    """Per-layer metrics of one traced epoch."""
    up = "rl.ppo.update"
    counts = tracer.counts
    padded = counts["rl.buffer.padded_rows"]
    return {
        "rl.ppo.update_s": tracer.total(up),
        "rl.ppo.update_self_s": tracer.self_time(up),
        "rl.ppo.pi_iters": counts["rl.ppo.pi_iters"],
        "rl.rollout_s": (tracer.total("rl.act") + tracer.total("sim.env_step")
                         + tracer.total("rl.buffer") + tracer.total("rl.targets")),
        "rl.validate_s": (tracer.total("rl.act_greedy")
                          + tracer.total("sim.val_env_step")),
        "rl.buffer.valid_row_frac": (
            counts["rl.buffer.valid_rows"] / padded if padded else 0.0),
        "nn.forward_s": tracer.total("nn.forward", up),
        "nn.backward_s": tracer.total("nn.backward", up),
        "nn.optim_s": tracer.total("nn.optim", up),
        "nn.rows_forwarded": counts[f"nn.rows_forwarded@{up}"],
        "sim.env_step_s": (tracer.total("sim.env_step")
                           + tracer.total("sim.val_env_step")),
        "sim.env_steps": counts["sim.env_steps"],
        "workloads.sample_s": tracer.total("workloads.sample"),
    }


def run(seed: int, seconds: float, tracer) -> RunResult:
    result = RunResult()
    copies = 1 if tracer is None else 2
    built, setup_s, trace_times = set_up(seed, copies)
    result.attempted += copies
    (trace, trainer, _), *rest = built
    result.metrics["setup_s"] = setup_s

    epoch_times, traced_times, layers = [], [], []
    start = perf_counter()
    try:
        for epoch in range(1, TIMED_EPOCHS + 1):
            if perf_counter() - start >= SAFETY_FACTOR * seconds:
                break
            if tracer is None:
                record, elapsed = timed_epoch(trainer, epoch)
            else:
                # The traced twin runs the identical epoch (same seed, same
                # history), so its time over the untraced one is the overhead.
                twin = rest[0][1]
                (record, elapsed), (twin_record, twin_elapsed) = run_pair(
                    lambda: timed_epoch(trainer, epoch),
                    lambda: traced_epoch(tracer, twin, epoch),
                    traced_first=epoch % 2 == 0)
                traced_times.append(twin_elapsed)
                layers.append(epoch_layers(tracer))
                if twin_record.stats != record.stats:
                    result.fail(f"epoch {epoch}: traced run diverged")
            epoch_times.append(elapsed)
            result.attempted += 1
            check_stats(record, result)
        if tracer is None:
            bsld = evaluate_policy(trainer, trace, seed, result)
        else:
            with tracer.installed():
                tracer.reset()
                bsld = evaluate_policy(trainer, trace, seed, result)
            evaluate_layers = {
                "sim.engine_s": tracer.total("sim.engine"),
                "sim.events": tracer.counts["sim.events"],
                "sim.metric_s": tracer.total("sim.metric"),
                "schedulers.decisions": tracer.counts["schedulers.decisions"],
                "schedulers.rl.select_s": tracer.total("schedulers.rl.select"),
                "schedulers.rl.rows_scored":
                    tracer.counts["schedulers.rl.rows_scored"],
            }
    finally:
        for _trace, t, _ in built:
            t.close()

    result.metrics.update(latency_metrics(epoch_times, epoch_times,
                                          JOBS_PER_EPOCH))
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    result.info.update(
        epoch_times=epoch_times,
        policy_bsld=bsld,
        epochs_timed=len(epoch_times),
    )
    if tracer is not None:
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        per_layer.update(evaluate_layers)
        per_layer["workloads.trace_s"] = statistics.median(trace_times)
        per_layer["policy_bsld"] = bsld
        per_layer["trace_overhead_frac"] = sum(traced_times) / sum(epoch_times) - 1.0
        accounted = (per_layer["rl.ppo.update_s"] + per_layer["rl.rollout_s"]
                     + per_layer["rl.validate_s"] + per_layer["workloads.sample_s"])
        result.info["traced_epoch_s"] = statistics.median(traced_times)
        result.info["unaccounted_frac"] = 1.0 - accounted / statistics.median(
            traced_times)
        result.info["layers_per_epoch"] = layers
        result.metrics.update(per_layer)
    return result
