"""Outer training loop: curriculum, episode generation, buffers, updates.

Each iteration picks one task from the unlocked curriculum, runs a batch of
search-driven episodes against a frozen parameter snapshot, then commits
buffer updates and a couple of gradient steps in one serialized phase.
Failed episodes train the value head alongside the solved ones. With a
fixed seed the whole run, including its metrics files, is reproducible
byte for byte; timing is measured outside the trainer.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from . import env as E
from . import programs as P
from .env import EnvState, TaskId, TASKS, env_to_record, sample_task_env
from .network import (
    AdamState,
    dims_for_library,
    init_optimizer,
    init_params,
    train_step,
)
from .programs import ProgramLibrary, build_library
from .search import (
    Evaluator,
    EpisodeStep,
    NetworkEvaluator,
    NetworkGreedyPolicy,
    SearchConfig,
    SearchStats,
    check_tunables,
    execute_greedy,
    lockstep_episodes,
    search_episode,
    tunable,
)

METRICS_COLUMNS = ("iteration", "task", "mode", "episodes", "successes",
                   "ema", "loss", "nodes_expanded_cum")
SEARCH_COLUMNS = ("iteration", "task", "mode", "simulations",
                  "nodes_expanded", "max_depth")
ACCURACY_COLUMNS = ("program", "length", "accuracy")

# Learned programs a task may call, i.e. those of lower level, whose
# mastery gates it.
_UNLOCK_DEPS = {
    TaskId(spec.name): tuple(TaskId(dep.name) for dep in P._LEARNED if dep.level < spec.level)
    for spec in P._LEARNED
}


@dataclass
class TrainConfig:
    seed: int = tunable(0, ">= 0", lambda v: v >= 0)
    library_mode: str = tunable(P.MODE_ARGS, "args|noargs",
                                lambda v: v in (P.MODE_ARGS, P.MODE_NO_ARGS),
                                key="library")
    search: SearchConfig = field(default_factory=SearchConfig)
    n_episodes: int = tunable(20, ">= 1", lambda v: v >= 1,
                              key="episodes_per_iteration")
    batch_size: int = tunable(64, ">= 1", lambda v: v >= 1)
    grad_steps: int = tunable(2, ">= 0", lambda v: v >= 0)
    learning_rate: float = tunable(1e-4, "> 0", lambda v: v > 0.0)
    epsilon_failed: float = tunable(0.2, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    unlock_threshold: float = tunable(0.9, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    ema_decay: float = tunable(0.95, "in [0, 1)", lambda v: 0.0 <= v < 1.0)
    replay_capacity: int = tunable(2000, ">= 1", lambda v: v >= 1)
    failed_capacity: int = tunable(200, ">= 1", lambda v: v >= 1)
    train_length_min: int = tunable(2, ">= 2", lambda v: v >= 2)
    train_length_max: int = tunable(7, ">= 2", lambda v: v >= 2)

    def validate(self) -> None:
        check_tunables(self)
        self.search.validate()
        if self.train_length_min > self.train_length_max:
            raise ValueError("train_length_min exceeds train_length_max")


@dataclass
class TraceRecord:
    """Execution trace of one episode. Its reward says what it trains: a
    solved trace (reward 1) trains the policy and the value, a failed one
    the value alone.
    """

    task_index: int
    task_name: str
    e_initial: EnvState
    steps: list[EpisodeStep]
    e_final: EnvState
    reward: int


def replay_trace(record: TraceRecord, lib: ProgramLibrary) -> int:
    """Re-derive the reward by applying the stored actions to e_initial.

    Learned calls replay through the reference transform, which is exact
    because a successful sub-episode must have reached that very state.
    """
    task = TaskId(record.task_name)
    e = record.e_initial
    for step in record.steps:
        if step.action_name == "stop":
            return E.reward(task, record.e_initial, e)
        spec = lib.spec(step.action_name)
        if spec.is_atomic:
            e = P.apply_atomic(e, spec, step.action_args)
        else:
            e = E.oracle_transform(TaskId(spec.name), e)
    return 0


class ReplayBuffer:
    """FIFO of traces to train on; each trace's reward says what it
    trains (`TraceRecord`)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: deque[TraceRecord] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._items)

    def add(self, record: TraceRecord) -> None:
        self._items.append(record)

    def sample(self, k: int, rng: np.random.Generator) -> list[TraceRecord]:
        """Up to `k` distinct traces; an empty buffer gives none and draws
        nothing from `rng`."""
        items = list(self._items)
        k = min(k, len(items))
        idx = rng.choice(len(items), size=k, replace=False)
        return [items[int(i)] for i in idx]

    def __iter__(self):
        return iter(self._items)


class FailedEnvBuffer:
    """Per-task FIFO of failing start states with failure counts.

    A state that fails again has its count bumped, which raises its
    resampling probability; a buffered state that finally succeeds is
    dropped. Each task's states are the keys of an insertion-ordered dict,
    so a bump keeps a state's place and eviction drops the oldest.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._buf: dict[TaskId, dict[EnvState, int]] = {t: {} for t in TASKS}

    def size(self, task: TaskId) -> int:
        return len(self._buf[task])

    def entries(self, task: TaskId) -> list[tuple[EnvState, int]]:
        return list(self._buf[task].items())

    def add_failure(self, task: TaskId, env: EnvState) -> None:
        buf = self._buf[task]
        buf[env] = buf.get(env, 0) + 1
        while len(buf) > self.capacity:
            del buf[next(iter(buf))]

    def remove(self, task: TaskId, env: EnvState) -> None:
        self._buf[task].pop(env, None)

    def sample(self, task: TaskId, rng: np.random.Generator) -> EnvState:
        """A stored state of `task`, drawn by failure count; the task's
        buffer must not be empty."""
        buf = self._buf[task]
        counts = np.fromiter(buf.values(), dtype=np.float64, count=len(buf))
        probs = counts / counts.sum()
        idx = int(rng.choice(len(buf), p=probs))
        return next(islice(buf, idx, None))

    def dump_lines(self) -> list[str]:
        lines = []
        for task in TASKS:
            for env, count in self._buf[task].items():
                lines.append(f"{task.program_name}\t{count}\t{env_to_record(env)}")
        return lines


@dataclass
class TaskStat:
    ema: float = 0.0
    unlocked: bool = False


class TaskStats:
    """Per-task success tracking driving the curriculum."""

    def __init__(self, ema_decay: float, unlock_threshold: float):
        self.ema_decay = ema_decay
        self.unlock_threshold = unlock_threshold
        self.stats = {t: TaskStat(unlocked=(t is TaskId.PARTITION_UPDATE)) for t in TASKS}

    def record(self, task: TaskId, reward: int) -> None:
        st = self.stats[task]
        st.ema = self.ema_decay * st.ema + (1.0 - self.ema_decay) * reward

    def refresh_unlocks(self) -> None:
        # Unlocking is monotone: flags are only ever set.
        for task, deps in _UNLOCK_DEPS.items():
            if not self.stats[task].unlocked:
                if all(self.stats[d].ema >= self.unlock_threshold for d in deps):
                    self.stats[task].unlocked = True

    def unlocked_tasks(self) -> list[TaskId]:
        return [t for t in TASKS if self.stats[t].unlocked]

    def selection_weights(self) -> tuple[list[TaskId], np.ndarray]:
        tasks = self.unlocked_tasks()
        w = np.array([1.0 - self.stats[t].ema + 0.1 for t in tasks])
        return tasks, w / w.sum()


def curriculum_select(stats: TaskStats, rng: np.random.Generator) -> TaskId:
    """Pick among unlocked tasks, favouring the ones still failing."""
    tasks, probs = stats.selection_weights()
    if not tasks:
        raise RuntimeError("no unlocked task")
    return tasks[int(rng.choice(len(tasks), p=probs))]


def sample_initial_env(
    task: TaskId, failed: FailedEnvBuffer, cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[EnvState, bool]:
    """Fresh task-conditioned state, or an old failing one with
    probability epsilon; returns (state, came_from_buffer)."""
    if cfg.epsilon_failed > 0.0 and failed.size(task) > 0:
        if rng.random() < cfg.epsilon_failed:
            return failed.sample(task, rng), True
    n = int(rng.integers(cfg.train_length_min, cfg.train_length_max + 1))
    return sample_task_env(task, n, rng), False


def run_episode(
    task: TaskId, e_initial: EnvState, evaluator: Evaluator,
    lib: ProgramLibrary, search_cfg: SearchConfig, rng: np.random.Generator,
    cache: Optional[dict] = None,
) -> tuple[TraceRecord, SearchStats]:
    """One search-driven episode from a given start state."""
    stats = SearchStats()
    steps, r, e_final = search_episode(
        task, e_initial, evaluator, lib, search_cfg, stats, rng, cache=cache)
    return _trace_record(lib, task, e_initial, steps, r, e_final), stats


def _trace_record(lib: ProgramLibrary, task: TaskId, e_initial: EnvState,
                  steps: list[EpisodeStep], r: int, e_final: EnvState) -> TraceRecord:
    return TraceRecord(
        task_index=lib.task_index(task),
        task_name=task.program_name,
        e_initial=e_initial,
        steps=steps,
        e_final=e_final,
        reward=r,
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_line(values: Iterable) -> str:
    return ",".join(_fmt(v) for v in values)


def csv_table(columns: Sequence[str], rows: Iterable[dict]) -> str:
    """A header line, then one line per row with its `columns` in order."""
    lines = [",".join(columns)]
    lines += [csv_line(row[c] for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


class Trainer:
    """Owns all mutable training state and emits one metrics row per
    iteration."""

    def __init__(self, cfg: TrainConfig):
        cfg.validate()
        self.cfg = cfg
        self.lib = build_library(cfg.library_mode)
        self.rng = np.random.Generator(np.random.PCG64(cfg.seed))
        self.params = init_params(cfg.seed, dims_for_library(self.lib))
        self.opt: AdamState = init_optimizer(self.params, lr=cfg.learning_rate)
        self.replay = ReplayBuffer(cfg.replay_capacity)
        self.failed = FailedEnvBuffer(cfg.failed_capacity)
        self.value_traces = ReplayBuffer(max(1, cfg.replay_capacity // 4))
        self.task_stats = TaskStats(cfg.ema_decay, cfg.unlock_threshold)
        self.iteration = 0
        self.nodes_expanded_cum = 0
        self.metrics_rows: list[dict] = []
        self.search_rows: list[dict] = []

    @property
    def mode_label(self) -> str:
        return f"{self.cfg.library_mode}-{self.cfg.search.mode}"

    def run_iteration(self) -> dict:
        """Pick a task, run `n_episodes` search episodes on the current
        parameters, then commit buffers, task statistics and gradient steps.

        Failed episodes feed the value head: every failed episode joins
        `value_traces`, and every gradient step adds `batch_size // 4` of
        them (at least one, at most all) to its batch of replayed
        successes, so V learns that a failing line scores 0 and not only
        that solved ones score 1; their reward keeps them out of the policy
        terms of the loss.

        Each episode gets its start state from the trainer's generator and
        then its own random stream, seeded by a draw from that generator,
        so that what an episode draws does not depend on when the other
        episodes draw. The episodes run in lockstep
        (`search.lockstep_episodes`, `search.LOCKSTEP_WIDTH` of them in
        flight): each wave of their leaf evaluations is one row-batched
        network step, which costs a fraction per row of a step on one
        vector. The width is measured, not tuned per run: a wider wave
        fills more rows, but each episode in flight keeps its search tree
        alive. Nested searches share one memo per iteration, filled in wave
        order. A batched row can differ from the one-vector step in its
        last bits, so the iteration is byte-reproducible run to run, but
        not equal to running the same episodes one at a time.
        """
        self.task_stats.refresh_unlocks()
        task = curriculum_select(self.task_stats, self.rng)
        evaluator = NetworkEvaluator(self.params)
        iter_stats = SearchStats()
        jobs, from_buffer = [], []
        for _ in range(self.cfg.n_episodes):
            e_init, came_from_buffer = sample_initial_env(
                task, self.failed, self.cfg, self.rng)
            stream = np.random.Generator(np.random.PCG64(int(self.rng.integers(1 << 63))))
            jobs.append((task, e_init, stream))
            from_buffer.append(came_from_buffer)
        cache: dict = {}  # nested-search memo, valid while params are frozen
        outcomes = lockstep_episodes(jobs, evaluator, self.lib, self.cfg.search,
                                     iter_stats, cache)
        # Serialized commit phase: buffers, statistics, gradient updates.
        successes = 0
        for (_, e_init, _), came_from_buffer, (steps, r, e_final) in zip(
                jobs, from_buffer, outcomes):
            record = _trace_record(self.lib, task, e_init, steps, r, e_final)
            self.task_stats.record(task, r)
            if r == 1:
                successes += 1
                self.replay.add(record)
                if came_from_buffer:
                    self.failed.remove(task, e_init)
            else:
                self.failed.add_failure(task, e_init)
                self.value_traces.add(record)
        if len(self.replay) > 0:
            probe = self.replay.sample(1, self.rng)[0]
            if replay_trace(probe, self.lib) != probe.reward:
                raise RuntimeError(
                    f"stored trace for {probe.task_name} no longer replays "
                    f"to reward {probe.reward}")
        losses = []
        if len(self.replay) > 0:
            for _ in range(self.cfg.grad_steps):
                batch = self.replay.sample(self.cfg.batch_size, self.rng)
                batch += self.value_traces.sample(max(1, self.cfg.batch_size // 4), self.rng)
                losses.append(train_step(self.params, self.opt, batch))
        self.iteration += 1
        self.nodes_expanded_cum += iter_stats.nodes_expanded
        row = {
            "iteration": self.iteration,
            "task": task.program_name,
            "mode": self.mode_label,
            "episodes": self.cfg.n_episodes,
            "successes": successes,
            "ema": self.task_stats.stats[task].ema,
            "loss": (sum(losses) / len(losses)) if losses else float("nan"),
            "nodes_expanded_cum": self.nodes_expanded_cum,
        }
        self.metrics_rows.append(row)
        self.search_rows.append({
            "iteration": self.iteration,
            "task": task.program_name,
            "mode": self.cfg.search.mode,
            "simulations": iter_stats.simulations,
            "nodes_expanded": iter_stats.nodes_expanded,
            "max_depth": iter_stats.max_depth,
        })
        return row

    def run(self, iterations: int) -> list[dict]:
        return [self.run_iteration() for _ in range(iterations)]

    # -- file emission ------------------------------------------------------

    def metrics_csv(self) -> str:
        return csv_table(METRICS_COLUMNS, self.metrics_rows)

    def search_csv(self) -> str:
        return csv_table(SEARCH_COLUMNS, self.search_rows)

    def dump_failed_envs(self) -> str:
        return "\n".join(self.failed.dump_lines()) + "\n"


# ---------------------------------------------------------------------------
# Evaluation harness


def evaluate_generalization(
    policy, lib: ProgramLibrary, seed: int,
    lengths: Sequence[int] = (5, 10, 20, 40, 60), trials: int = 50,
) -> list[dict]:
    """Greedy accuracy grid over tasks and list lengths, 50 fresh states
    per cell by default; `trials` must be at least 1."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for task in TASKS:
        for length in lengths:
            wins = 0
            for _ in range(trials):
                env = sample_task_env(task, length, rng)
                r, _ = execute_greedy(env, task, policy, lib)
                wins += r
            rows.append({
                "program": task.program_name,
                "length": length,
                "accuracy": wins / trials,
            })
    return rows


def accuracy_csv(rows: Sequence[dict]) -> str:
    return csv_table(ACCURACY_COLUMNS, rows)

