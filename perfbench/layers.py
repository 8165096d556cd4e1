"""The layer boundaries the traced run wraps, one span name per boundary.

Span names start with the ``src/repro`` module that owns the boundary
(``rl``, ``nn``, ``sim``, ``schedulers``, ``serve``, ``workloads``).  Every
wrapped function is a public function or method of the library.  A
boundary that no longer exists is recorded in ``Tracer.missing`` instead
of failing the run, so a refactor shows up as a zero metric rather than a
crash.
"""

from __future__ import annotations

import numpy as np

import repro.api
import repro.rl.ppo
import repro.serve.protocol
from repro.nn.layers import Module
from repro.nn.networks import KernelPolicy, ValueMLP
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.ppo import PPOAgent
from repro.rl.trainer import Trainer
from repro.runtime.sharded_env import ShardedVecSchedGym
from repro.scenarios.core import Scenario
from repro.schedulers.base import Scheduler
from repro.schedulers.rl_scheduler import RLSchedulerPolicy
from repro.serve.service import SchedulerRouter
from repro.sim.core import OnlineSchedulingEngine
from repro.sim.simulator import SchedulingEngine
from repro.sim.vec_env import VecSchedGym
from repro.workloads.sampler import SequenceSampler

from tracer import Tracer

__all__ = ["CONTEXTS", "instrument"]

#: spans whose descendants are aggregated separately (``Tracer.contexts``)
CONTEXTS = ("rl.ppo.update",)


def instrument(tracer: Tracer) -> Tracer:
    """Register every layer boundary on ``tracer`` (installed later)."""
    t = tracer
    wrap = t.wrap

    # -- rl: epoch phases and the PPO update ------------------------------
    wrap(Trainer, "run_epoch", "epoch")

    def on_update(args, kwargs, stats):
        masks = np.asarray(args[1]["masks"])
        t.add("rl.ppo.pi_iters", stats.pi_iters_run)
        t.add("rl.buffer.valid_rows", int(masks.sum()))
        t.add("rl.buffer.padded_rows", masks.size)

    wrap(PPOAgent, "update", "rl.ppo.update", hook=on_update)
    wrap(PPOAgent, "act_batch", "rl.act")
    wrap(PPOAgent, "value_batch", "rl.targets", group="rl.targets")
    wrap(PPOAgent, "episode_log_probs", "rl.targets", group="rl.targets")
    wrap(PPOAgent, "act_greedy_batch", "rl.act_greedy")
    for attr in ("store_batch", "end_slot", "get"):
        wrap(TrajectoryBuffer, attr, "rl.buffer", group="rl.buffer")

    # -- nn: forward / backward / optimizer -------------------------------
    def on_forward(args, kwargs, result):
        module = args[0]
        if isinstance(module, ValueMLP) or len(args) < 2:
            return
        rows = np.asarray(args[1])
        n = rows.shape[0] * rows.shape[1] if rows.ndim == 3 else rows.shape[0]
        t.add(f"nn.rows_forwarded@{t.context()}", n)

    wrap(Module, "__call__", "nn.forward", group="nn.forward", hook=on_forward)
    for attr in ("score_rows", "score_rows_grad"):
        wrap(KernelPolicy, attr, "nn.forward", group="nn.forward",
             hook=on_forward)
    wrap(Tensor, "backward", "nn.backward", group="nn.backward")
    wrap(Adam, "step", "nn.optim", group="nn.optim")
    wrap(repro.rl.ppo, "clip_grad_norm", "nn.optim", group="nn.optim")

    # -- sim: vec-env steps, batch engine, metrics, online engine ---------
    def count_steps(args, kwargs, result):
        t.add("sim.env_steps", int(np.count_nonzero(np.asarray(args[1]) >= 0)))

    wrap(ShardedVecSchedGym, "step", "sim.env_step", group="sim.env",
         hook=count_steps)
    for attr in ("reset", "queue_sequences"):
        wrap(ShardedVecSchedGym, attr, "sim.env_step", group="sim.env")
    wrap(VecSchedGym, "step", "sim.val_env_step", group="sim.env",
         hook=count_steps)
    wrap(VecSchedGym, "reset", "sim.val_env_step", group="sim.env")

    engines: list[SchedulingEngine] = []

    def keep_engine(args, kwargs, result):
        if t.innermost() == "sim.engine":  # not an env's engine
            engines.append(args[0])  # read n_events once the run is over

    def on_engine_run(args, kwargs, completed):
        t.add("sim.events", sum(e.n_events for e in engines))
        t.add("sim.jobs", len(completed))
        engines.clear()

    wrap(SchedulingEngine, "__init__", "sim.engine_init", hook=keep_engine)
    wrap(repro.api, "run_scheduler", "sim.engine", hook=on_engine_run)

    # The matrix workers look their metric function up once per call; the
    # span goes around the function that lookup hands back.
    def trace_metric(args, kwargs, result):
        fn, higher_is_better = result
        return t.traced(fn, "sim.metric"), higher_is_better

    wrap(repro.api, "metric_by_name", "sim.metric_lookup", hook=trace_metric)

    for attr in ("submit", "advance", "next_decision", "commit", "drain",
                 "take_completed"):
        wrap(OnlineSchedulingEngine, attr, "sim.online", group="sim.online")

    # -- schedulers -------------------------------------------------------
    wrap(Scheduler, "select", "schedulers.select",
         hook=lambda a, k, r: t.add("schedulers.decisions"))

    def on_rl_select(args, kwargs, result):
        policy, pending = args[0], args[1]
        t.add("schedulers.decisions")
        t.add("schedulers.rl.rows_scored",
              min(len(pending), policy.env_config.max_obsv_size))
        t.sample("serve.pending_at_decision", len(pending))

    wrap(RLSchedulerPolicy, "select", "schedulers.rl.select",
         hook=on_rl_select)

    # -- serve ------------------------------------------------------------
    wrap(SchedulerRouter, "dispatch", "serve.dispatch")
    for attr in ("encode", "decode"):
        wrap(repro.serve.protocol, attr, "serve.codec")

    # -- workloads --------------------------------------------------------
    wrap(Scenario, "build_trace", "workloads.trace", group="workloads.trace")
    for attr in ("sample", "sample_many"):
        wrap(SequenceSampler, attr, "workloads.sample",
             group="workloads.sample")
    return t
