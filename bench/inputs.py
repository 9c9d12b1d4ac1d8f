"""Inputs shared by the benchmark and the parameter-file recipe.

Every function takes the imported `argsynth` package as `A`, so the
benchmark can import the package afresh for each set-up pass it times.
"""
from __future__ import annotations

import numpy as np

TRAIN_LENGTHS = range(2, 8)  # RunConfig's train_length_min..max


def expert_traces(A, lib, task, env) -> list:
    """Behaviour-cloning traces of `expert_script` run from `env`.

    Returns the task's own trace last, preceded by one trace per nested
    learned call, taken at the state where the script makes that call. The
    targets are one-hot on the scripted program and argument tuple; the
    value target is the reward, 1.
    """
    EpisodeStep = A.search.EpisodeStep
    nested: list = []
    steps = []
    e = env
    for name, args in A.expert_script(task, env, lib.mode):
        spec = lib.spec(name)
        pi_p = np.zeros(len(lib))
        pi_p[lib.index(name)] = 1.0
        pi_a = np.zeros(64)
        pi_a[A.args_encode(args)] = 1.0
        steps.append(EpisodeStep(obs=A.observe(e), action_name=name,
                                 action_args=args, pi_p_mcts=pi_p,
                                 pi_a_mcts=pi_a, hidden=np.zeros(0)))
        if name == "stop":
            break
        if spec.is_atomic:
            e = A.apply_atomic(e, spec, args)
        else:
            sub = expert_traces(A, lib, A.TaskId(name), e)
            nested += sub
            e = sub[-1].e_final
    own = A.TraceRecord(task_index=lib.task_index(task), task_name=task.program_name,
                        e_initial=env, steps=steps, e_final=e, reward=1)
    return nested + [own]


def trace_pool(A, lib, rng: np.random.Generator, per_cell: int) -> list:
    """Expert traces of all four tasks, `per_cell` entry states for each
    task and each training length 2..7, nested calls included."""
    pool = []
    for task in A.TASKS:
        for n in TRAIN_LENGTHS:
            for _ in range(per_cell):
                pool += expert_traces(A, lib, task, A.sample_task_env(task, n, rng))
    return pool
