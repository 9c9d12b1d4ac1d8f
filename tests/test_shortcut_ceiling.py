"""The shortcut ceiling: the share of sampled start states that atomic
calls alone solve in a few actions, without the learned call a task is
named for. A task whose ceiling reaches the unlock threshold can be
unlocked without learning that call."""
import numpy as np
import pytest

from argsynth.env import (
    NONE,
    P1,
    P2,
    P3,
    TaskId,
    make_env,
    oracle_transform,
    reward_to_target,
    sample_task_env,
)
from argsynth.programs import apply_atomic, build_library, feasible_pairs
from argsynth.trainer import TrainConfig

LIB = build_library("args")


def shortcut_moves(task, env, lib, d):
    """The fewest atomic actions, at most `d`, after which `stop` would
    earn `task`'s reward from `env`, or None.

    Breadth-first over the atomic pairs, other than `stop`, that
    `feasible_pairs` admits at the task's level, visiting each state once.
    """
    target = oracle_transform(task, env)
    if reward_to_target(task, target, env) == 1:
        return 0
    level = lib.spec(task.program_name).level
    frontier, seen = [env], {env}
    for moves in range(1, d + 1):
        reached = []
        for e in frontier:
            for spec, args in feasible_pairs(e, level, lib):
                if spec.is_atomic and spec.name != "stop":
                    child = apply_atomic(e, spec, args)
                    if child in seen:
                        continue
                    if reward_to_target(task, target, child) == 1:
                        return moves
                    seen.add(child)
                    reached.append(child)
        frontier = reached
    return None


def shortcut_share(task, d, states=100, seed=0):
    """The share of `states` start states, drawn as the trainer draws fresh
    ones at the default lengths, that `shortcut_moves` solves within `d`
    actions."""
    cfg, r = TrainConfig(), np.random.Generator(np.random.PCG64(seed))
    envs = [sample_task_env(task, int(r.integers(cfg.train_length_min,
                                                 cfg.train_length_max + 1)), r)
            for _ in range(states)]
    return sum(shortcut_moves(task, e, LIB, d) is not None for e in envs) / states


@pytest.mark.parametrize("values, moves", [
    ([1, 5], [("ptr_right", (P1, P3, NONE))]),
    ([5, 1], [("swap", (P1, P2, NONE)), ("ptr_right", (P3, NONE, NONE))]),
])
def test_hand_made_partitions(values, moves):
    env = make_env(values, 0, 1, 0, registry=0)
    final = env
    for name, args in moves:
        final = apply_atomic(final, LIB.spec(name), args)
    assert reward_to_target(TaskId.PARTITION, oracle_transform(TaskId.PARTITION, env), final) == 1
    assert shortcut_moves(TaskId.PARTITION, env, LIB, d=4) == len(moves)
    assert shortcut_moves(TaskId.PARTITION, env, LIB, d=len(moves) - 1) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP Defect 2: atomic shortcuts solve "
                                       "most sampled start states")
@pytest.mark.parametrize("task", (TaskId.QUICKSORT_UPDATE, TaskId.PARTITION))
def test_shortcuts_stay_below_the_unlock_threshold(task):
    assert shortcut_share(task, d=4) < TrainConfig().unlock_threshold
