import hashlib
from dataclasses import replace

import numpy as np
import pytest
from test_search import RowByRow

from argsynth.env import TaskId, TASKS, make_env, sample_task_env
from argsynth.expert import ExpertPolicy
from argsynth.programs import build_library
from argsynth import search as search_module
from argsynth import trainer as trainer_module
from argsynth.search import SearchConfig, SearchError, UniformEvaluator
from argsynth.trainer import (
    FailedEnvBuffer,
    ReplayBuffer,
    TaskStats,
    TrainConfig,
    Trainer,
    accuracy_csv,
    curriculum_select,
    evaluate_generalization,
    replay_trace,
    run_episode,
    sample_initial_env,
    METRICS_COLUMNS,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def tiny_config(**kw):
    defaults = dict(
        seed=3,
        library_mode="args",
        search=SearchConfig(mode="exact", simulations=12, nested_simulations=8,
                            training=True),
        n_episodes=3,
        batch_size=8,
        grad_steps=1,
        train_length_min=2,
        train_length_max=4,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestBuffers:
    def test_an_empty_replay_samples_nothing_and_draws_nothing(self):
        r = rng(4)
        state = r.bit_generator.state
        assert ReplayBuffer(3).sample(5, r) == []
        assert r.bit_generator.state == state

    def test_replay_fifo_capacity(self):
        from argsynth.trainer import TraceRecord
        buf = ReplayBuffer(2)
        envs = [make_env([i % 10, 1], 0, 1, 0) for i in range(3)]
        for e in envs:
            buf.add(TraceRecord(0, "partition_update", e, [], e, 1))
        assert len(buf) == 2
        assert [t.e_initial for t in buf] == envs[1:]

    def test_failed_buffer_counts_and_removal(self):
        buf = FailedEnvBuffer(10)
        env = make_env([1, 2], 0, 1, 0, registry=0)
        buf.add_failure(TaskId.PARTITION_UPDATE, env)
        buf.add_failure(TaskId.PARTITION_UPDATE, env)
        assert buf.entries(TaskId.PARTITION_UPDATE) == [(env, 2)]
        buf.remove(TaskId.PARTITION_UPDATE, env)
        assert buf.size(TaskId.PARTITION_UPDATE) == 0

    def test_failed_sampling_proportional_to_counts(self):
        buf = FailedEnvBuffer(10)
        a = make_env([1, 2], 0, 1, 0)
        b = make_env([3, 4], 0, 1, 0)
        for _ in range(3):
            buf.add_failure(TaskId.PARTITION, a)
        buf.add_failure(TaskId.PARTITION, b)
        r = rng(1)
        draws = [buf.sample(TaskId.PARTITION, r) for _ in range(4000)]
        share_a = sum(d == a for d in draws) / 4000
        assert share_a == pytest.approx(0.75, abs=0.03)

    def test_failed_capacity_fifo(self):
        buf = FailedEnvBuffer(2)
        envs = [make_env([i % 10, 1], 0, 1, 0) for i in range(3)]
        for e in envs:
            buf.add_failure(TaskId.QUICKSORT, e)
        kept = [e for e, _ in buf.entries(TaskId.QUICKSORT)]
        assert kept == envs[1:]


class TestCurriculum:
    def test_fresh_run_only_partition_update(self):
        stats = TaskStats(0.95, 0.9)
        assert stats.unlocked_tasks() == [TaskId.PARTITION_UPDATE]
        assert curriculum_select(stats, rng(0)) is TaskId.PARTITION_UPDATE

    def test_selection_weights_formula(self):
        stats = TaskStats(0.95, 0.9)
        stats.stats[TaskId.PARTITION_UPDATE].ema = 0.98
        stats.stats[TaskId.PARTITION].unlocked = True
        stats.stats[TaskId.PARTITION].ema = 0.5
        tasks, probs = stats.selection_weights()
        assert tasks == [TaskId.PARTITION_UPDATE, TaskId.PARTITION]
        assert probs[1] == pytest.approx(0.6 / 0.72, abs=1e-9)

    def test_unlock_rules(self):
        stats = TaskStats(0.95, 0.9)
        stats.stats[TaskId.PARTITION_UPDATE].ema = 0.95
        stats.refresh_unlocks()
        assert stats.stats[TaskId.PARTITION].unlocked
        assert not stats.stats[TaskId.QUICKSORT].unlocked
        stats.stats[TaskId.PARTITION].ema = 0.95
        stats.refresh_unlocks()
        assert stats.stats[TaskId.QUICKSORT_UPDATE].unlocked
        assert not stats.stats[TaskId.QUICKSORT].unlocked
        stats.stats[TaskId.QUICKSORT_UPDATE].ema = 0.92
        stats.refresh_unlocks()
        assert stats.stats[TaskId.QUICKSORT].unlocked

    def test_unlock_deps_are_the_learned_programs_of_lower_level(self):
        PU, PA, QU, QS = (TaskId.PARTITION_UPDATE, TaskId.PARTITION,
                          TaskId.QUICKSORT_UPDATE, TaskId.QUICKSORT)
        assert list(trainer_module._UNLOCK_DEPS.items()) == [
            (PU, ()), (PA, (PU,)), (QU, (PU, PA)), (QS, (PU, PA, QU))]

    def test_unlock_is_monotone(self):
        stats = TaskStats(0.95, 0.9)
        stats.stats[TaskId.PARTITION_UPDATE].ema = 0.95
        stats.refresh_unlocks()
        stats.stats[TaskId.PARTITION_UPDATE].ema = 0.1
        stats.refresh_unlocks()
        assert stats.stats[TaskId.PARTITION].unlocked

    def test_ema_update(self):
        stats = TaskStats(0.95, 0.9)
        stats.record(TaskId.PARTITION_UPDATE, 1)
        assert stats.stats[TaskId.PARTITION_UPDATE].ema == pytest.approx(0.05)
        stats.record(TaskId.PARTITION_UPDATE, 0)
        assert stats.stats[TaskId.PARTITION_UPDATE].ema == pytest.approx(0.0475)


class TestSampleInitialEnv:
    def test_epsilon_zero_always_fresh(self):
        cfg = tiny_config(epsilon_failed=0.0)
        failed = FailedEnvBuffer(10)
        failed.add_failure(TaskId.PARTITION, make_env([1, 2], 0, 1, 0, registry=0))
        r = rng(2)
        for _ in range(50):
            _, from_buffer = sample_initial_env(TaskId.PARTITION, failed, cfg, r)
            assert not from_buffer

    def test_epsilon_one_uses_buffer(self):
        cfg = tiny_config(epsilon_failed=1.0)
        failed = FailedEnvBuffer(10)
        stored = make_env([1, 2], 0, 1, 0, registry=0)
        failed.add_failure(TaskId.PARTITION, stored)
        env, from_buffer = sample_initial_env(TaskId.PARTITION, failed, cfg, rng(3))
        assert from_buffer and env == stored

    def test_empty_buffer_never_errors(self):
        cfg = tiny_config(epsilon_failed=1.0)
        env, from_buffer = sample_initial_env(
            TaskId.PARTITION, FailedEnvBuffer(10), cfg, rng(4))
        assert not from_buffer
        assert env.registry == env.p1

    def test_lengths_within_training_range(self):
        cfg = tiny_config(epsilon_failed=0.0, train_length_min=3, train_length_max=5)
        r = rng(5)
        for _ in range(100):
            env, _ = sample_initial_env(TaskId.QUICKSORT, FailedEnvBuffer(1), cfg, r)
            assert 3 <= env.n <= 5


class TestRunEpisode:
    def test_rigged_episode_succeeds_within_cap(self, rigged_evaluator):
        lib = build_library("args")
        cfg = SearchConfig(mode="exact", simulations=60, training=False,
                           temperature=0.0)
        r = rng(6)
        env = sample_task_env(TaskId.PARTITION_UPDATE, 5, r)
        record, stats = run_episode(TaskId.PARTITION_UPDATE, env,
                                    rigged_evaluator(lib), lib, cfg, r)
        assert record.reward == 1
        assert len(record.steps) <= 4
        assert stats.simulations >= 60

    def test_trace_replay_matches_recorded_reward(self, rigged_evaluator):
        lib = build_library("args")
        cfg = SearchConfig(mode="exact", simulations=50, nested_simulations=50,
                           training=False, temperature=0.0)

        def rewards(make_evaluator):
            r = rng(7)
            out = []
            for _ in range(6):
                task = TaskId.PARTITION
                env = sample_task_env(task, 4, r)
                record, _ = run_episode(task, env, make_evaluator(lib), lib,
                                        cfg, r, cache={})
                assert replay_trace(record, lib) == record.reward
                out.append(record.reward)
            return out

        done = sum(rewards(rigged_evaluator))
        assert done >= 4  # rigged priors solve most partition episodes
        # Flat priors fail some episodes: their traces must replay to 0 too.
        assert 0 in rewards(UniformEvaluator)


class TestTrainer:
    def test_first_iteration_empty_replay_path(self):
        cfg = tiny_config(search=SearchConfig(mode="exact", simulations=2,
                                              nested_simulations=2, training=True))
        trainer = Trainer(cfg)
        row = trainer.run_iteration()
        if row["successes"] == 0:
            assert np.isnan(row["loss"])
            assert sum(trainer.failed.size(t) for t in TASKS) > 0

    def test_metrics_csv_schema_and_determinism(self):
        def metrics():
            trainer = Trainer(tiny_config())
            trainer.run(10)
            return trainer.metrics_csv()
        a, b = metrics(), metrics()
        assert a == b
        header = a.splitlines()[0]
        assert header == ",".join(METRICS_COLUMNS)
        assert len(a.splitlines()) == 11

    def test_cumulative_nodes_nondecreasing(self):
        trainer = Trainer(tiny_config())
        rows = trainer.run(5)
        counts = [r["nodes_expanded_cum"] for r in rows]
        assert counts == sorted(counts)
        assert all(set(r) == set(METRICS_COLUMNS) for r in rows)

    def test_buffer_invariants_after_iterations(self):
        trainer = Trainer(tiny_config())
        trainer.run(8)
        for record in trainer.replay:
            assert record.reward == 1
        for task in TASKS:
            for env, count in trainer.failed.entries(task):
                assert count >= 1

    def test_search_csv_schema(self):
        trainer = Trainer(tiny_config())
        trainer.run(2)
        lines = trainer.search_csv().splitlines()
        assert lines[0] == "iteration,task,mode,simulations,nodes_expanded,max_depth"
        assert len(lines) == 3

    def test_failed_episodes_always_reach_the_value_head(self, monkeypatch):
        real = trainer_module.train_step
        seen = []  # (failed traces in the batch, value traces held)

        def run(strip_value_only=False):
            def step(params, opt, batch):
                seen.append((sum(tr.reward == 0 for tr in batch), len(trainer.value_traces)))
                if strip_value_only:
                    batch = [tr for tr in batch if tr.reward != 0]
                return real(params, opt, batch)

            monkeypatch.setattr(trainer_module, "train_step", step)
            trainer = Trainer(tiny_config(
                search=SearchConfig(mode="exact", simulations=60,
                                    nested_simulations=8, training=True),
                n_episodes=4, train_length_max=3))
            trainer.run(3)
            return trainer

        trained = run()
        assert len(trained.replay) > 0 and len(trained.value_traces) > 0
        assert all(r.reward == 0 and r.steps for r in trained.value_traces)
        # Every gradient step mixes in batch_size // 4 = 2 of them, or all
        # there are.
        assert seen and all(rows == min(2, held) for rows, held in seen)
        assert any(rows > 0 for rows, _ in seen)
        # Value-only targets join the batch, so the loss moves.
        without = run(strip_value_only=True)
        assert trained.metrics_rows[-1]["loss"] != without.metrics_rows[-1]["loss"]
        assert trained.metrics_csv() == run().metrics_csv()

    def test_a_stored_trace_that_no_longer_replays_is_an_error(self):
        """Every trace the replay buffer takes loses its final `stop`, so it
        no longer replays to its reward; the iteration's probe of the
        buffer refuses it before any gradient step."""
        trainer = Trainer(tiny_config(
            search=SearchConfig(mode="exact", simulations=60, nested_simulations=8,
                                training=True), n_episodes=4, train_length_max=3))
        add = trainer.replay.add
        trainer.replay.add = lambda record: add(replace(record, steps=record.steps[:-1]))
        with pytest.raises(RuntimeError, match="no longer replays to reward 1"):
            trainer.run(3)
        assert trainer.replay and not trainer.metrics_rows

    def test_failed_env_dump_parses_back(self):
        from argsynth.env import env_from_record
        trainer = Trainer(tiny_config(search=SearchConfig(
            mode="exact", simulations=2, nested_simulations=2, training=True)))
        trainer.run(4)
        for line in trainer.dump_failed_envs().strip().splitlines():
            if not line:
                continue
            task_name, count, record = line.split("\t")
            assert TaskId(task_name) in TASKS
            assert int(count) >= 1
            env_from_record(record)


class TestLockstepIteration:
    def test_the_width_does_not_change_an_exact_evaluator_s_iteration(self, monkeypatch):
        """Each episode draws from its own stream, so with rows computed
        one by one the schedule of the waves leaves no trace."""
        monkeypatch.setattr(trainer_module, "NetworkEvaluator", RowByRow)
        runs = []
        for width in (1, 2, 6):
            monkeypatch.setattr(search_module, "LOCKSTEP_WIDTH", width)
            t = Trainer(tiny_config(n_episodes=6))
            t.run(2)
            runs.append((t.metrics_csv(), t.search_csv(),
                         [(r.e_initial, [s.hidden.tobytes() for s in r.steps]) for r in t.replay],
                         t.dump_failed_envs()))
        assert runs[0] == runs[1] == runs[2]

    def test_an_error_in_one_episode_propagates_and_closes_the_others(self, monkeypatch):
        made = []
        real = search_module._episode

        def tracked(*args):
            made.append(real(*args))
            return made[-1]

        class Poisoned(RowByRow):
            waves = 0

            def evaluate_many(self, requests):
                answers = super().evaluate_many(requests)
                Poisoned.waves += 1
                if Poisoned.waves == 3:
                    pi_p, pi_a, _, h = answers[1]
                    answers[1] = (pi_p, pi_a, float("nan"), h)
                return answers

        monkeypatch.setattr(search_module, "_episode", tracked)
        monkeypatch.setattr(search_module, "LOCKSTEP_WIDTH", 4)
        monkeypatch.setattr(trainer_module, "NetworkEvaluator", Poisoned)
        t = Trainer(tiny_config(n_episodes=6))
        with pytest.raises(SearchError, match="non-finite leaf value"):
            t.run_iteration()
        assert Poisoned.waves == 3 and len(made) == 4
        assert all(g.gi_frame is None for g in made)  # finished or closed
        assert t.iteration == 0 and not t.metrics_rows


# Today's defaults spelled out in full, so that a change of defaults leaves
# the oracle where it is.
ORACLE_RUNS = {
    "default": TrainConfig(
        seed=0, library_mode="args",
        search=SearchConfig(mode="approx", n_expand=5, simulations=200,
                            c_puct=1.0, dirichlet_alpha=0.3,
                            dirichlet_weight=0.25, temperature=1.0,
                            nested_simulations=100, training=True),
        n_episodes=20, batch_size=64, grad_steps=2, learning_rate=1e-4,
        epsilon_failed=0.2, unlock_threshold=0.9,
        ema_decay=0.95, replay_capacity=2000, failed_capacity=200,
        train_length_min=2, train_length_max=7),
    "noargs-exact": TrainConfig(
        seed=0, library_mode="noargs",
        search=SearchConfig(mode="exact", n_expand=5, simulations=200,
                            c_puct=1.0, dirichlet_alpha=0.3,
                            dirichlet_weight=0.25, temperature=1.0,
                            nested_simulations=100, training=True),
        n_episodes=20, batch_size=64, grad_steps=2, learning_rate=1e-4,
        epsilon_failed=0.2, unlock_threshold=0.9,
        ema_decay=0.95, replay_capacity=2000, failed_capacity=200,
        train_length_min=2, train_length_max=7),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_RUNS))
def oracle_run(request):
    """Three iterations of the named config, and a digest of every tree
    they grew, top-level and nested, in the order the trees finished:
    each node's visit count and its edges' `P`, `N`, `W` and `Q` as
    float64 bytes."""
    trees, grow = hashlib.sha256(), search_module._grow

    def hashing_grow(*args, **kwargs):
        res = yield from grow(*args, **kwargs)
        stack = [res.root]
        while stack:
            node = stack.pop()
            trees.update(repr(node.visits).encode())
            for stat in (node.P, node.N, node.W, node.Q):
                trees.update(np.asarray(stat, dtype=np.float64).tobytes())
            stack.extend(c for c in reversed(node.children) if c is not None)
        return res

    search_module._grow = hashing_grow
    try:
        trainer = Trainer(ORACLE_RUNS[request.param])
        trainer.run(3)
    finally:
        search_module._grow = grow
    return request.param, trainer, trees.hexdigest()


def _drop_column(csv_text: str, column: str) -> str:
    rows = [line.split(",") for line in csv_text.splitlines()]
    k = rows[0].index(column)
    return "\n".join(",".join(r[:k] + r[k + 1:]) for r in rows) + "\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestBehaviourOracle:
    """`metrics_csv() + search_csv()` and every tree's statistics pinned
    byte for byte.

    A change that keeps behaviour (a refactor, an index-based rewrite of
    the search) must leave these digests as they are; a change that means
    to alter behaviour updates them and says why.
    """

    DIGESTS = {
        "default": "32be910e0e4a7e1168e147997238973cc85274f0e80e1f9ddc65ff474a6a84b8",
        "noargs-exact": "b4c6ad1c6c1ba7177702fad948ce64af0d94e192951f790b97613fc9d70465b0",
    }

    # The statistics behind the visit counts: a last-bit change in a prior
    # seldom moves a visit count, so the CSVs alone would not show it.
    TREES = {
        "default": "7d7176516b28598422e9760d25aa46f25e97560c6f78c64f378c7979518ca848",
        "noargs-exact": "b8bd3be74ebed91e23268329cf8f3975eaa5295c594c3084d4fa0ba43b1610bd",
    }

    # Recorded from this trainer with `test_network.reference_train_step`
    # (the textbook Adam update, each temporary a fresh array) in place of
    # `train_step`: every column but `loss` byte for byte, and the `loss`
    # values to within 1e-12.
    PER_TRACE_LOOP = {
        "default": ("aeac68bd2a2a784a29a42adb61fc40a6438d0f4ae37c2fa4436b7eac909921be",
                    [28.803212444019728, 29.18595997833377, 42.86628641125904]),
        "noargs-exact": ("4d4bd925b506b2aebca16018118ea82b5fc3fb1ee18e8bae8a84b20f241e859d",
                         [190.20425755454875, 398.5992115241066, 563.9233468134821]),
    }

    def test_three_iterations_are_byte_identical(self, oracle_run):
        name, trainer, _ = oracle_run
        assert _sha256(trainer.metrics_csv() + trainer.search_csv()) == self.DIGESTS[name]

    def test_every_tree_s_statistics_are_byte_identical(self, oracle_run):
        name, _, trees = oracle_run
        assert trees == self.TREES[name]

    def test_matches_the_per_trace_training_loop(self, oracle_run):
        name, trainer, _ = oracle_run
        digest, losses = self.PER_TRACE_LOOP[name]
        rest = _drop_column(trainer.metrics_csv(), "loss") + trainer.search_csv()
        assert _sha256(rest) == digest
        got = [row["loss"] for row in trainer.metrics_rows]
        assert len(got) == len(losses)
        for g, want in zip(got, losses):
            if np.isnan(want):
                assert np.isnan(g)
            else:
                assert abs(g - want) <= 1e-12 * abs(want)


class TestEvaluation:
    def test_expert_policy_hits_perfect_grid(self):
        lib = build_library("args")
        rows = evaluate_generalization(ExpertPolicy(lib), lib, seed=5,
                                       lengths=(5, 10), trials=5)
        assert len(rows) == 8
        assert all(r["accuracy"] == 1.0 for r in rows)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_fewer_than_one_trial_is_refused(self, trials):
        lib = build_library("args")
        with pytest.raises(ValueError, match="trials"):
            evaluate_generalization(ExpertPolicy(lib), lib, seed=5, lengths=(5,),
                                    trials=trials)

    def test_accuracy_csv_shape(self):
        lib = build_library("args")
        rows = evaluate_generalization(ExpertPolicy(lib), lib, seed=5,
                                       lengths=(5,), trials=2)
        text = accuracy_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "program,length,accuracy"
        assert lines[1] == "partition_update,5,1.0"

