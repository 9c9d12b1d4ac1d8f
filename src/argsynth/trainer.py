"""Outer training loop: curriculum, episode generation, buffers, updates.

Each iteration picks one task from the unlocked curriculum, runs a batch of
search-driven episodes against a frozen parameter snapshot, then commits
buffer updates and a couple of gradient steps in one serialized phase. With
a fixed seed the whole run, including its metrics files, is reproducible
byte for byte (wall-clock timing is therefore off by default).
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace as dc_replace
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from . import env as E
from . import programs as P
from .env import EnvState, TaskId, TASKS, env_to_record, sample_task_env
from .network import (
    AdamState,
    ParameterSet,
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
    search_episode,
    tunable,
)

METRICS_COLUMNS = ("iteration", "task", "mode", "episodes", "successes",
                   "ema", "loss", "nodes_expanded_cum", "wall_ms")
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
    grad_clip: float = field(default=1.0, metadata={"need": "> 0", "ok": lambda v: v > 0.0})
    epsilon_failed: float = tunable(0.2, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    unlock_threshold: float = tunable(0.9, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    ema_decay: float = tunable(0.95, "in [0, 1)", lambda v: 0.0 <= v < 1.0)
    replay_capacity: int = tunable(2000, ">= 1", lambda v: v >= 1)
    failed_capacity: int = tunable(200, ">= 1", lambda v: v >= 1)
    train_length_min: int = tunable(2, ">= 2", lambda v: v >= 2)
    train_length_max: int = tunable(7, ">= 2", lambda v: v >= 2)
    wall_clock: bool = tunable(False)
    # Off by default: only successful traces reach the value head. Turning
    # this on mixes failed episodes in as value-only targets, countering
    # the optimism an all-success replay diet breeds into V.
    value_from_failures: bool = tunable(False)

    def validate(self) -> None:
        check_tunables(self)
        self.search.validate()
        if self.train_length_min > self.train_length_max:
            raise ValueError("train_length_min exceeds train_length_max")


@dataclass
class TraceRecord:
    """Execution trace of one episode; only reward-1 traces are replayed.

    `value_only` marks failed episodes admitted purely as value targets;
    their policy vectors are ignored by the loss.
    """

    task_index: int
    task_name: str
    e_initial: EnvState
    steps: list[EpisodeStep]
    e_final: EnvState
    reward: int
    value_only: bool = False


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
    """FIFO of successful traces only."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: deque[TraceRecord] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._items)

    def add(self, record: TraceRecord) -> None:
        if record.reward != 1:
            raise ValueError("replay buffer only stores reward-1 traces")
        self._items.append(record)

    def sample(self, k: int, rng: np.random.Generator) -> list[TraceRecord]:
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

    def sample(self, task: TaskId, rng: np.random.Generator) -> Optional[EnvState]:
        buf = self._buf[task]
        if not buf:
            return None
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
    attempts: int = 0
    unlocked: bool = False


class TaskStats:
    """Per-task success tracking driving the curriculum."""

    def __init__(self, ema_decay: float, unlock_threshold: float):
        self.ema_decay = ema_decay
        self.unlock_threshold = unlock_threshold
        self.stats = {t: TaskStat(unlocked=(t is TaskId.PARTITION_UPDATE)) for t in TASKS}

    def record(self, task: TaskId, reward: int) -> None:
        st = self.stats[task]
        st.attempts += 1
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
            env = failed.sample(task, rng)
            if env is not None:
                return env, True
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
    record = TraceRecord(
        task_index=lib.task_index(task),
        task_name=task.program_name,
        e_initial=e_initial,
        steps=steps,
        e_final=e_final,
        reward=r,
    )
    return record, stats


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

    def __init__(self, cfg: TrainConfig, params: Optional[ParameterSet] = None):
        cfg.validate()
        self.cfg = cfg
        self.lib = build_library(cfg.library_mode)
        self.rng = np.random.Generator(np.random.PCG64(cfg.seed))
        if params is None:
            params = init_params(cfg.seed, dims_for_library(self.lib))
        self.params = params
        self.opt: AdamState = init_optimizer(params, lr=cfg.learning_rate,
                                             clip=cfg.grad_clip)
        self.replay = ReplayBuffer(cfg.replay_capacity)
        self.failed = FailedEnvBuffer(cfg.failed_capacity)
        self.value_traces: deque[TraceRecord] = deque(maxlen=max(1, cfg.replay_capacity // 4))
        self.task_stats = TaskStats(cfg.ema_decay, cfg.unlock_threshold)
        self.iteration = 0
        self.nodes_expanded_cum = 0
        self.metrics_rows: list[dict] = []
        self.search_rows: list[dict] = []

    @property
    def mode_label(self) -> str:
        return f"{self.cfg.library_mode}-{self.cfg.search.mode}"

    def run_iteration(self) -> dict:
        t0 = time.perf_counter() if self.cfg.wall_clock else 0.0
        self.task_stats.refresh_unlocks()
        task = curriculum_select(self.task_stats, self.rng)
        evaluator = NetworkEvaluator(self.params)
        iter_stats = SearchStats()
        episodes: list[tuple[TraceRecord, bool]] = []
        cache: dict = {}  # nested-search memo, valid while params are frozen
        for _ in range(self.cfg.n_episodes):
            e_init, from_buffer = sample_initial_env(
                task, self.failed, self.cfg, self.rng)
            record, stats = run_episode(
                task, e_init, evaluator, self.lib, self.cfg.search, self.rng,
                cache=cache)
            iter_stats.merge(stats)
            episodes.append((record, from_buffer))
        # Serialized commit phase: buffers, statistics, gradient updates.
        successes = 0
        for record, from_buffer in episodes:
            self.task_stats.record(task, record.reward)
            if record.reward == 1:
                successes += 1
                self.replay.add(record)
                if from_buffer:
                    self.failed.remove(task, record.e_initial)
            else:
                self.failed.add_failure(task, record.e_initial)
                if self.cfg.value_from_failures and record.steps:
                    self.value_traces.append(dc_replace(record, value_only=True))
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
                if self.cfg.value_from_failures and self.value_traces:
                    pool = list(self.value_traces)
                    k = min(max(1, self.cfg.batch_size // 4), len(pool))
                    idx = self.rng.choice(len(pool), size=k, replace=False)
                    batch = batch + [pool[int(i)] for i in idx]
                losses.append(train_step(self.params, self.opt, batch))
        self.iteration += 1
        self.nodes_expanded_cum += iter_stats.nodes_expanded
        wall_ms = int(round((time.perf_counter() - t0) * 1000.0)) if self.cfg.wall_clock else 0
        row = {
            "iteration": self.iteration,
            "task": task.program_name,
            "mode": self.mode_label,
            "episodes": self.cfg.n_episodes,
            "successes": successes,
            "ema": self.task_stats.stats[task].ema,
            "loss": (sum(losses) / len(losses)) if losses else float("nan"),
            "nodes_expanded_cum": self.nodes_expanded_cum,
            "wall_ms": wall_ms,
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
    tasks: Sequence[TaskId] = TASKS,
) -> list[dict]:
    """Greedy accuracy grid over tasks and list lengths, 50 fresh states
    per cell by default."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for task in tasks:
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

