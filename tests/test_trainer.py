"""Integration tests for the training loop (small scale, seeded)."""

import multiprocessing

import numpy as np
import pytest

from repro.config import EnvConfig, PPOConfig, RuntimeConfig, TrainConfig
from repro.rl import Trainer, train
from repro.rl.trainer import EpochRecord
from repro.workloads import load_trace


TINY_ENV = EnvConfig(max_obsv_size=16)
TINY_PPO = PPOConfig(train_pi_iters=15, train_v_iters=15)


def tiny_train_config(**kw):
    base = dict(epochs=2, trajectories_per_epoch=4, trajectory_length=24, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=800, seed=3)


class TestTrainerMechanics:
    def test_curve_length_matches_epochs(self, trace):
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config())
        result = t.train()
        assert len(result.curve) == 2
        assert result.metric_curve().shape == (2,)

    def test_records_are_populated(self, trace):
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config(epochs=1))
        record = t.train().curve[0]
        assert record.mean_metric >= 1.0        # bsld floor
        assert record.mean_reward == -record.mean_metric
        assert record.wall_time > 0
        assert not record.filtered_phase

    def test_reproducible_with_seed(self, trace):
        def run():
            t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                        train_config=tiny_train_config(epochs=1))
            return t.train().metric_curve()

        np.testing.assert_allclose(run(), run())

    def test_as_scheduler_deploys(self, trace):
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config(epochs=1))
        result = t.train()
        sched = result.as_scheduler()
        assert sched.name == "RL-Lublin-1"
        from repro.sim import run_scheduler

        seq = [j.copy() for j in trace.jobs[:30]]
        assert len(run_scheduler(seq, trace.max_procs, sched)) == 30

    def test_as_scheduler_before_train_raises(self, trace):
        from repro.rl.trainer import TrainingResult

        result = TrainingResult(trace_name="x", metric="bsld", policy_preset="kernel")
        with pytest.raises(RuntimeError):
            result.as_scheduler()

    def test_as_scheduler_use_best_does_not_mutate_policy(self, trace):
        """Regression: restoring the best snapshot must not overwrite the
        final-epoch weights — a later use_best=False deployment (or
        resumed training) would silently continue from the snapshot."""
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config(epochs=1))
        result = t.train()
        final = {k: v.copy() for k, v in result.policy.state_dict().items()}
        # force a best snapshot that provably differs from the final weights
        result.best_policy_state = {k: v + 1.0 for k, v in final.items()}
        result.best_epoch = 0

        best_sched = result.as_scheduler(use_best=True)
        for key, value in result.policy.state_dict().items():
            np.testing.assert_array_equal(value, final[key])
        for key, value in best_sched.policy.state_dict().items():
            np.testing.assert_array_equal(value, final[key] + 1.0)

        final_sched = result.as_scheduler(use_best=False)
        for key, value in final_sched.policy.state_dict().items():
            np.testing.assert_array_equal(value, final[key])

    def test_save_load_round_trips_everything(self, trace, tmp_path):
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config())
        result = t.train()
        path = tmp_path / "ckpt.npz"
        result.save(path)
        loaded = type(result).load(path)

        assert loaded.trace_name == result.trace_name
        assert loaded.metric == result.metric
        assert loaded.policy_preset == result.policy_preset
        assert loaded.n_procs == result.n_procs
        assert loaded.env_config == result.env_config
        assert loaded.best_epoch == result.best_epoch
        for group in ("policy", "value"):
            fresh = getattr(result, group).state_dict()
            restored = getattr(loaded, group).state_dict()
            for key in fresh:
                np.testing.assert_array_equal(fresh[key], restored[key])
        for key in result.best_policy_state:
            np.testing.assert_array_equal(
                result.best_policy_state[key], loaded.best_policy_state[key])
        assert [r.to_dict() for r in loaded.curve] == [
            r.to_dict() for r in result.curve]
        np.testing.assert_array_equal(
            loaded.metric_curve(), result.metric_curve())

    def test_epoch_record_loads_parent_format_dicts(self):
        """Curves saved before the asynchronous rollouts were removed
        carry two retired counters (and a ``broadcast`` phase); they load,
        while any other unknown key still fails loudly."""
        saved = {
            "epoch": 3, "mean_metric": 41.5, "mean_reward": -41.5,
            "stats": {"policy_loss": -0.01, "value_loss": 0.2, "kl": 0.004,
                      "entropy": 1.3, "pi_iters_run": 80,
                      "early_stopped": False, "kl_last": 0.005},
            "n_rejected": 2, "wall_time": 4.8, "filtered_phase": True,
            "val_reward": -39.0,
            "n_stale_dropped": 0, "n_stale_reweighted": 0,
            "phase_times": {"rollout": 0.07, "update": 4.6,
                            "broadcast": 0.0, "validate": 0.1},
        }
        record = EpochRecord.from_dict(saved)
        assert record.epoch == 3 and record.n_rejected == 2
        assert record.stats.pi_iters_run == 80
        assert record.phase_times["update"] == 4.6
        expected = {k: v for k, v in saved.items()
                    if k not in ("n_stale_dropped", "n_stale_reweighted")}
        assert record.to_dict() == expected
        with pytest.raises(TypeError, match="n_unknown"):
            EpochRecord.from_dict(dict(saved, n_unknown=1))

    def test_save_before_train_raises(self, tmp_path):
        from repro.rl.trainer import TrainingResult

        result = TrainingResult(trace_name="x", metric="bsld",
                                policy_preset="kernel")
        with pytest.raises(RuntimeError):
            result.save(tmp_path / "ckpt.npz")

    def test_utilization_metric_sign(self, trace):
        """util is maximised: mean_metric must equal +mean_reward."""
        t = Trainer(trace, metric="util", env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config(epochs=1))
        record = t.train().curve[0]
        assert record.mean_metric == record.mean_reward
        assert 0.0 < record.mean_metric <= 1.0

    def test_alternate_policy_preset(self, trace):
        t = Trainer(trace, policy_preset="mlp_v2", env_config=TINY_ENV,
                    ppo_config=TINY_PPO, train_config=tiny_train_config(epochs=1))
        result = t.train()
        assert result.policy_preset == "mlp_v2"

    def test_train_function_entry_point(self, trace):
        result = train(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                       train_config=tiny_train_config(epochs=1))
        assert result.trace_name == "Lublin-1"


class TestTrajectoryFilterIntegration:
    def test_filter_phase_flag(self, trace):
        cfg = tiny_train_config(
            epochs=2, use_trajectory_filter=True, filter_probe_samples=8,
            filter_phase1_fraction=0.5,
        )
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO, train_config=cfg)
        result = t.train()
        assert result.curve[0].filtered_phase
        assert not result.curve[1].filtered_phase

    def test_filter_fitted_at_construction(self, trace):
        cfg = tiny_train_config(use_trajectory_filter=True, filter_probe_samples=8)
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO, train_config=cfg)
        assert t.filter is not None
        assert t.filter.range is not None


class TestLearningSignal:
    def test_metric_improves_on_lublin(self, trace):
        """A few epochs at small scale should already beat the untrained
        policy — the Fig. 10 convergence property at miniature scale."""
        cfg = tiny_train_config(epochs=5, trajectories_per_epoch=8,
                                trajectory_length=32)
        t = Trainer(trace, env_config=TINY_ENV,
                    ppo_config=PPOConfig(train_pi_iters=40, train_v_iters=20),
                    train_config=cfg)
        curve = t.train().metric_curve()
        assert min(curve[2:]) < curve[0]


class TestNoLeakedWorkers:
    def test_exception_mid_training_leaves_no_children(self, trace):
        """A mid-training exception inside the Trainer context tears the
        rollout worker processes down instead of leaking them."""
        config = tiny_train_config(
            runtime=RuntimeConfig(backend="process", workers=2))
        with pytest.raises(RuntimeError, match="sentinel"):
            with Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                         train_config=config) as t:
                t.run_epoch(0)
                assert t.vec_env.backend.started
                raise RuntimeError("sentinel")
        for proc in multiprocessing.active_children():
            proc.join(timeout=10)
        assert multiprocessing.active_children() == []
