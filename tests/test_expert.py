import numpy as np
import pytest

from argsynth.env import EnvError, TaskId, TASKS, sample_task_env, step_cap
from argsynth.expert import (
    ExpertPolicy,
    ExpertUnavailable,
    expert_available,
    expert_script,
)
from argsynth import programs
from argsynth.programs import build_library
from argsynth.search import execute_greedy


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("task", TASKS)
def test_scripts_earn_reward_on_random_states(task):
    lib = build_library("args")
    r = rng(1)
    lengths = list(range(2, 8)) + [20]
    for i in range(60):
        env = sample_task_env(task, lengths[i % len(lengths)], r)
        reward, _ = execute_greedy(env, task, ExpertPolicy(lib), lib)
        assert reward == 1


@pytest.mark.parametrize("task", (TaskId.PARTITION_UPDATE, TaskId.PARTITION))
def test_noargs_scripts_for_lower_tasks(task):
    lib = build_library("noargs")
    r = rng(2)
    for i in range(40):
        env = sample_task_env(task, int(r.integers(2, 8)), r)
        reward, _ = execute_greedy(env, task, ExpertPolicy(lib), lib)
        assert reward == 1


def test_noargs_upper_tasks_unavailable():
    assert not expert_available(TaskId.QUICKSORT_UPDATE, "noargs")
    assert not expert_available(TaskId.QUICKSORT, "noargs")
    assert expert_available(TaskId.QUICKSORT, "args")
    env = sample_task_env(TaskId.QUICKSORT_UPDATE, 5, rng(3))
    with pytest.raises(ExpertUnavailable):
        expert_script(TaskId.QUICKSORT_UPDATE, env, "noargs")


def test_scripts_respect_step_caps():
    r = rng(4)
    for task in TASKS:
        for _ in range(40):
            n = int(r.integers(2, 21))
            env = sample_task_env(task, n, r)
            script = expert_script(task, env, "args")
            assert len(script) <= step_cap(task, n)
            assert script[-1][0] == "stop"


def test_script_rejects_precondition_violations():
    env = sample_task_env(TaskId.QUICKSORT, 5, rng(5))
    with pytest.raises(EnvError):
        expert_script(TaskId.QUICKSORT_UPDATE, env, "args")  # stack empty


def test_an_error_inside_a_scripted_run_reaches_the_caller(monkeypatch):
    """An atomic call that raises in a nested scripted call, with the
    caller's script still unfinished, reaches the caller unchanged."""
    def failing_apply(env, spec, args):
        raise EnvError("injected")

    monkeypatch.setattr(programs, "apply_atomic", failing_apply)
    lib = build_library("args")
    env = sample_task_env(TaskId.PARTITION, 5, rng(6))
    with pytest.raises(EnvError, match="injected"):
        execute_greedy(env, TaskId.PARTITION, ExpertPolicy(lib), lib)
