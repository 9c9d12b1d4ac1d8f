"""Hand-written reference behaviours for every learned program.

A script is the exact call sequence (including nested learned calls and the
final stop) that drives a task from a given entry state to its reference
outcome using only feasible library calls. Scripts double as the oracle
policy test double for the evaluation harness and as the decisive check
that the push/pop/registry semantics actually sort.
"""
from __future__ import annotations

from typing import Callable

from . import env as E
from . import programs as P
from .env import NONE, P1, P2, P3, EnvState, TaskId
from .programs import EMPTY_ARGS, ArgTuple, ProgramLibrary


class ExpertUnavailable(RuntimeError):
    """No script exists for this task in this library mode."""


def _swap13(mode: str) -> tuple[str, ArgTuple]:
    if mode == P.MODE_ARGS:
        return ("swap", (P1, P3, NONE))
    return ("swap_pivot", EMPTY_ARGS)


def _swap12(mode: str) -> tuple[str, ArgTuple]:
    if mode == P.MODE_ARGS:
        return ("swap", (P1, P2, NONE))
    return ("swap", EMPTY_ARGS)


def _script_partition_update(env: EnvState, mode: str) -> list[tuple[str, ArgTuple]]:
    acts: list[tuple[str, ArgTuple]] = []
    if env.values[env.p3] < env.values[env.p2]:
        if env.p1 != env.p3:
            acts.append(_swap13(mode))
        if mode == P.MODE_ARGS:
            acts.append(("ptr_right", (P1, P3, NONE)))
        else:
            acts.append(("ptr_1_right", EMPTY_ARGS))
            acts.append(("ptr_3_right", EMPTY_ARGS))
    else:
        if mode == P.MODE_ARGS:
            acts.append(("ptr_right", (P3, NONE, NONE)))
        else:
            acts.append(("ptr_3_right", EMPTY_ARGS))
    acts.append(("stop", EMPTY_ARGS))
    return acts


def _script_partition(env: EnvState, mode: str) -> list[tuple[str, ArgTuple]]:
    acts: list[tuple[str, ArgTuple]] = []
    e = env
    while e.p3 < e.p2:
        acts.append(("partition_update", EMPTY_ARGS))
        e = E.oracle_transform(TaskId.PARTITION_UPDATE, e)
    if e.p1 != e.p2:
        acts.append(_swap12(mode))
    acts.append(("stop", EMPTY_ARGS))
    return acts


def _script_quicksort_update(env: EnvState, mode: str) -> list[tuple[str, ArgTuple]]:
    acts: list[tuple[str, ArgTuple]] = [
        ("pop", EMPTY_ARGS),
        ("save_ptr", (P1, NONE, NONE)),
        ("partition", EMPTY_ARGS),
        ("load_ptr", (P3, NONE, NONE)),
    ]
    e = E.apply_atomic(env, "pop", ())
    e = E.apply_atomic(e, "save_ptr", (P1,))
    e = E.oracle_transform(TaskId.PARTITION, e)
    e = E.apply_atomic(e, "load_ptr", (P3,))
    if E.atomic_feasible(e, "push", ()):
        acts.append(("push", EMPTY_ARGS))
    acts.append(("stop", EMPTY_ARGS))
    return acts


def _script_quicksort(env: EnvState, mode: str) -> list[tuple[str, ArgTuple]]:
    acts: list[tuple[str, ArgTuple]] = [
        ("save_ptr", (P1, NONE, NONE)),
        ("partition", EMPTY_ARGS),
        ("load_ptr", (P3, NONE, NONE)),
    ]
    e = E.apply_atomic(env, "save_ptr", (P1,))
    e = E.oracle_transform(TaskId.PARTITION, e)
    e = E.apply_atomic(e, "load_ptr", (P3,))
    if E.atomic_feasible(e, "push", ()):
        acts.append(("push", EMPTY_ARGS))
        e = E.apply_atomic(e, "push", ())
    while e.stack:
        acts.append(("quicksort_update", EMPTY_ARGS))
        e = E.oracle_transform(TaskId.QUICKSORT_UPDATE, e)
    acts.append(("stop", EMPTY_ARGS))
    return acts


_SCRIPTS = {
    TaskId.PARTITION_UPDATE: _script_partition_update,
    TaskId.PARTITION: _script_partition,
    TaskId.QUICKSORT_UPDATE: _script_quicksort_update,
    TaskId.QUICKSORT: _script_quicksort,
}


def expert_script(task: TaskId, env: EnvState, mode: str = P.MODE_ARGS) -> list[tuple[str, ArgTuple]]:
    """Full call sequence for `task` from `env`, ending in stop.

    `env` is taken as the entry state of an episode: the script is the plan
    for a whole episode from there. Called on a state partway through an
    episode, it plans a new episode from that state; it does not return the
    rest of the running one. The entry conditions of partition_update and
    partition can still hold partway through, so it need not raise there.
    A caller that follows a script must keep it and its position itself.

    Nested learned calls appear as single entries; their own scripts are
    generated when the executor recurses into them. Raises
    `ExpertUnavailable` where `expert_available` is false.
    """
    if not E.task_precondition(task, env):
        raise E.EnvError(f"state violates entry condition of {task.program_name}")
    if not expert_available(task, mode):
        raise ExpertUnavailable(f"no script for {task.program_name} in mode {mode!r}")
    return _SCRIPTS[task](env, mode)


def expert_available(task: TaskId, mode: str) -> bool:
    """Whether `task` has a script in library `mode`. Every task has one
    with arguments. Without them quicksort_update has none: it must load
    the registry into pointer 3, and the no-argument atomic set can only
    load into pointer 1. Nor has quicksort, which relies on
    quicksort_update."""
    if mode == P.MODE_ARGS:
        return True
    return task in (TaskId.PARTITION_UPDATE, TaskId.PARTITION)


class ExpertPolicy:
    """Scripted policy usable wherever a greedy policy is expected.

    Each call's step function walks that call's script, planned from the
    call's entry state, one entry per step; a nested learned call gets a
    script of its own. It keeps nothing in the execution's memo."""

    def __init__(self, lib: ProgramLibrary):
        self.lib = lib

    def start(self, task: TaskId, env: EnvState, memo: dict
              ) -> Callable[[EnvState], tuple[P.ProgramSpec, ArgTuple]]:
        script = iter(expert_script(task, env, self.lib.mode))

        def step(env: EnvState) -> tuple[P.ProgramSpec, ArgTuple]:
            name, args = next(script)
            return self.lib.spec(name), args

        return step
