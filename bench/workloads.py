"""The four workloads: their inputs, one round of operations, and checks.

A workload is built from the imported package `A` and the run's seed. A
round is a fixed list of operations; the benchmark repeats whole rounds,
and every round of a run does the same work. `reset` runs before each
round, outside the timed region. `check` takes the round's outputs (None
for an operation that raised) and says which were right; `final_check`
runs once after the timed region and returns the run-level problems found.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import reference as R
from inputs import trace_pool

HERE = Path(__file__).resolve().parent
PARAMS_FILE = HERE / "params.ckpt"
# sha256 of params.ckpt as `python3 bench/make_params.py` writes it.
PARAMS_SHA256 = "8c58dc42e6190737fdcab01e1c2099faf83837eb79cce5e1808d6c23b47f3d21"

EVAL_LENGTHS = (5, 10, 20, 40, 60)  # RunConfig.eval_lengths


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _seeds(seed: int, stream: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, stream]).generate_state(k)]


def load_params(A, lib):
    """The committed parameter file, through the program's own loader."""
    digest = hashlib.sha256(PARAMS_FILE.read_bytes()).hexdigest()
    if digest != PARAMS_SHA256:
        raise RuntimeError(f"{PARAMS_FILE} has sha256 {digest}, expected {PARAMS_SHA256}")
    params, _, _ = A.checkpoint_load(PARAMS_FILE, expected_manifest=lib.manifest())
    return params


class Workload:
    """Defaults: one unit of work per operation that returned."""

    def reset(self) -> None:
        pass

    def units(self, outputs) -> int:
        return sum(out is not None for out in outputs)

    def final_check(self) -> list[str]:
        return []


def _ended_on_stop(steps) -> bool:
    return bool(steps) and steps[-1].action_name == "stop"


class TrainCold(Workload):
    """One default-config training iteration per operation, each from a
    fresh trainer seed, as `argsynth train` starts."""

    ROUND = 3

    def __init__(self, A, seed: int):
        self.A = A
        self.seeds = _seeds(seed, 1, self.ROUND + 1)
        self.ops = [self._op(s) for s in self.seeds[1:]]

    def warmup(self) -> None:
        self._op(self.seeds[0])()

    def _op(self, trainer_seed: int):
        def op():
            trainer = self.A.Trainer(self.A.RunConfig(seed=trainer_seed).to_train_config())
            trainer.run_iteration()
            return trainer
        return op

    def check(self, outputs) -> list[bool]:
        return [t is not None and self._check_trainer(t) for t in outputs]

    def _check_trainer(self, t) -> bool:
        A = self.A
        (row,), (srow,) = t.metrics_rows, t.search_rows
        if not (0 <= row["successes"] <= row["episodes"] == t.cfg.n_episodes):
            return False
        if not (row["nodes_expanded_cum"] == srow["nodes_expanded"] > 0):
            return False
        if len(t.replay) != row["successes"]:
            return False
        for rec in t.replay:
            if rec.task_name != "partition_update" or not _ended_on_stop(rec.steps):
                return False
            e = rec.e_initial
            for step in rec.steps[:-1]:
                e = A.apply_atomic(e, t.lib.spec(step.action_name), step.action_args)
            if R.plain(e) != R.partition_update(R.plain(rec.e_initial)):
                return False
        return True


class SearchNested(Workload):
    """Exact-mode search episodes on `partition` with the parameter file:
    training noise on, default budgets, batches sharing a nested memo."""

    BATCHES, BATCH = 4, 20

    def __init__(self, A, seed: int):
        self.A = A
        self.lib = A.build_library("args")
        self.evaluator = A.NetworkEvaluator(load_params(A, self.lib))
        self.cfg = A.SearchConfig(mode=A.MODE_EXACT, training=True)
        rng = _rng(seed, 2)
        task = A.TaskId.PARTITION
        # Lengths 2..7 in turn rather than drawn, so every round holds the
        # same mix of sizes whatever the seed; the lists are drawn.
        self.entries = [[A.sample_task_env(task, 2 + (b + i) % 6, rng)
                         for i in range(self.BATCH)] for b in range(self.BATCHES + 1)]
        self.search_seeds = _seeds(seed, 3, self.BATCHES + 1)
        self.warmup_entries = self.entries.pop()
        self.warmup_seed = self.search_seeds.pop()
        self.ops = [self._op(b, i) for b in range(self.BATCHES) for i in range(self.BATCH)]
        self.reset()

    def reset(self) -> None:
        self.caches = [{} for _ in range(self.BATCHES)]
        self.rngs = [np.random.Generator(np.random.PCG64(s)) for s in self.search_seeds]

    def _op(self, b: int, i: int):
        return lambda: self.A.run_episode(
            self.A.TaskId.PARTITION, self.entries[b][i], self.evaluator, self.lib,
            self.cfg, self.rngs[b], cache=self.caches[b])

    def units(self, outputs) -> int:
        """Simulations, top-level and nested, as the program counts them.

        An episode that fails runs on to its step cap and costs about ten
        solved ones, so over 40 episodes per seed, episodes per second
        moved 2.6x between seeds (5.75 to 15.0 /s, seeds 11..18, one
        process) while simulations per second stayed within 17.6k..21.8k.
        """
        return sum(out[1].simulations for out in outputs if out is not None)

    def warmup(self) -> None:
        rng = np.random.Generator(np.random.PCG64(self.warmup_seed))
        cache: dict = {}
        for env in self.warmup_entries[:6]:
            self.A.run_episode(self.A.TaskId.PARTITION, env, self.evaluator, self.lib,
                               self.cfg, rng, cache=cache)

    def check(self, outputs) -> list[bool]:
        return [out is not None and out[0].reward == int(
            _ended_on_stop(out[0].steps)
            and R.solved("partition", R.plain(out[0].e_initial), R.plain(out[0].e_final)))
            for out in outputs]


class LearnReplay(Workload):
    """Adam steps on batches of 64 expert traces of all four tasks,
    from a fresh network; each round starts again from the same network."""

    ROUND, BATCH = 16, 64

    def __init__(self, A, seed: int):
        self.A = A
        lib = A.build_library("args")
        rng = _rng(seed, 4)
        pool = trace_pool(A, lib, rng, per_cell=4)
        held = trace_pool(A, lib, rng, per_cell=1)
        self.held_out = [held[int(i)] for i in rng.choice(len(held), self.BATCH, replace=False)]
        self.batches = [[pool[int(i)] for i in rng.choice(len(pool), self.BATCH, replace=False)]
                        for _ in range(self.ROUND + 1)]
        self.warmup_batch = self.batches.pop()
        self.initial = A.init_params(_seeds(seed, 5, 1)[0], A.dims_for_library(lib))
        self.lr = A.RunConfig().learning_rate
        self.fd_rng = _rng(seed, 6)
        self.ops = [self._op(batch) for batch in self.batches]
        self.problems: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.params = self.initial.copy()
        self.opt = self.A.init_optimizer(self.params, lr=self.lr)

    def _op(self, batch):
        return lambda: self.A.train_step(self.params, self.opt, batch)

    def warmup(self) -> None:
        self.reset()
        self.A.train_step(self.params, self.opt, self.warmup_batch)
        self.start_loss = self.A.loss(self.initial, self.held_out)

    def check(self, outputs) -> list[bool]:
        end_loss = self.A.loss(self.params, self.held_out)
        if not end_loss < self.start_loss:
            self.problems.append(
                f"held-out loss rose over a round: {self.start_loss} -> {end_loss}")
        return [v is not None and bool(np.isfinite(v)) for v in outputs]

    def final_check(self) -> list[str]:
        """Analytic gradients against central differences of `loss` on
        sampled entries of every parameter array."""
        A = self.A
        params = self.params
        batch = self.batches[0][:2]
        _, grads = A.loss_and_grads(params, batch)
        h = 1e-5
        worst = 0.0
        for name, arr in params.arrays.items():
            flat = arr.reshape(-1)
            for i in self.fd_rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = A.loss(params, batch)
                flat[i] = orig - h
                down = A.loss(params, batch)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                g = grads[name].reshape(-1)[i]
                worst = max(worst, abs(fd - g) / max(abs(fd) + abs(g), 1e-4))
        if worst > 1e-4:
            self.problems.append(f"analytic gradient disagrees with central differences: {worst}")
        return self.problems


class EvalGreedy(Workload):
    """Greedy trials of the `argsynth eval` grid with the parameter file:
    every task at lengths 5/10/20/40/60, TRIALS states per cell."""

    TRIALS = 5

    def __init__(self, A, seed: int):
        self.A = A
        self.lib = A.build_library("args")
        self.policy = A.NetworkGreedyPolicy(load_params(A, self.lib), self.lib)
        self.seed = _seeds(seed, 7, 1)[0]
        # The states evaluate_generalization draws for this seed, in its order.
        rng = np.random.Generator(np.random.PCG64(self.seed))
        self.trials = [(task, length, A.sample_task_env(task, length, rng))
                       for task in A.TASKS for length in EVAL_LENGTHS
                       for _ in range(self.TRIALS)]
        self.ops = [self._op(task, env) for task, _, env in self.trials]
        self.problems: list[str] = []

    def _op(self, task, env):
        def op():
            trace: list = []
            r, final = self.A.execute_greedy(env, task, self.policy, self.lib, trace=trace)
            stopped = bool(trace) and trace[-1].depth == 0 and trace[-1].name == "stop"
            return r, final, stopped
        return op

    def warmup(self) -> None:
        self.grid = self.A.evaluate_generalization(
            self.policy, self.lib, seed=self.seed, lengths=EVAL_LENGTHS, trials=self.TRIALS)

    def check(self, outputs) -> list[bool]:
        ok = []
        wins: dict = {}
        for (task, length, env), out in zip(self.trials, outputs):
            if out is None:
                ok.append(False)
                continue
            r, final, stopped = out
            name = task.program_name
            ok.append(r == int(stopped and R.solved(name, R.plain(env), R.plain(final))))
            wins[(name, length)] = wins.get((name, length), 0) + r
        for row in self.grid:
            got = wins.get((row["program"], row["length"]), 0) / self.TRIALS
            if row["accuracy"] != got:
                self.problems.append(
                    f"evaluate_generalization gives {row['accuracy']} on "
                    f"{row['program']}@{row['length']}, its trials give {got}")
        return ok

    def final_check(self) -> list[str]:
        return self.problems


WORKLOADS = {
    "train_cold": TrainCold,
    "search_nested": SearchNested,
    "learn_replay": LearnReplay,
    "eval_greedy": EvalGreedy,
}
