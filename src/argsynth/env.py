"""Deterministic list-manipulation world for sorting-program induction.

The state is a list of small integers, three pointers into it, a stack of
index ranges, and a one-slot registry holding a saved pointer position.
States are immutable: every atomic operation returns a fresh state, so any
number of concurrent episodes can share them without coordination.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

MAX_VALUE = 10

# Argument slot codes. An argument tuple has three slots, each one of these;
# NONE pads the unused slots.
NONE, P1, P2, P3 = 0, 1, 2, 3
SLOT_NAMES = {NONE: "NONE", P1: "P1", P2: "P2", P3: "P3"}

# Number of features produced by observe(). Fixed and independent of the
# list length, which is what lets a trained network run on longer lists.
OBS_DIM = 21


class EnvError(ValueError):
    """Raised for invalid states or infeasible atomic applications."""


@dataclass(frozen=True)
class RangeFrame:
    """A saved (lo, hi) index range; lo <= hi always."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi):
            raise EnvError(f"bad range frame ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class EnvState:
    """Immutable world state: values, pointers, range stack, registry."""

    values: tuple[int, ...]
    p1: int
    p2: int
    p3: int
    stack: tuple[RangeFrame, ...] = ()
    registry: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.values)

    def ptr(self, slot: int) -> int:
        """Position of the pointer named by a slot code (P1/P2/P3)."""
        if slot == P1:
            return self.p1
        if slot == P2:
            return self.p2
        if slot == P3:
            return self.p3
        raise EnvError(f"not a pointer slot: {slot}")

    def is_sorted(self) -> bool:
        v = self.values
        return all(map(operator.le, v, v[1:]))


def make_env(
    values: Sequence[int],
    p1: int,
    p2: int,
    p3: int,
    stack: Sequence[tuple[int, int] | RangeFrame] = (),
    registry: Optional[int] = None,
) -> EnvState:
    """Build a validated state; rejects anything outside the invariants."""
    vals = tuple(int(v) for v in values)
    if len(vals) < 2:
        raise EnvError(f"list too short (n={len(vals)}, need >= 2)")
    for v in vals:
        if not (0 <= v <= MAX_VALUE):
            raise EnvError(f"value {v} outside [0, {MAX_VALUE}]")
    n = len(vals)
    for name, p in (("p1", p1), ("p2", p2), ("p3", p3)):
        if not (0 <= p < n):
            raise EnvError(f"{name}={p} out of range [0, {n})")
    frames = []
    for f in stack:
        frame = f if isinstance(f, RangeFrame) else RangeFrame(int(f[0]), int(f[1]))
        if frame.hi >= n:
            raise EnvError(f"range frame {frame} exceeds list length {n}")
        frames.append(frame)
    if registry is not None and not (0 <= registry < n):
        raise EnvError(f"registry={registry} out of range [0, {n})")
    return EnvState(vals, int(p1), int(p2), int(p3), tuple(frames), registry)


# ---------------------------------------------------------------------------
# Observation encoding


def observe(env: EnvState) -> np.ndarray:
    """Fixed-length feature vector in [0,1]; booleans encoded as 0/1.

    Order: pointed values (scaled), pointer end flags, pointer equalities,
    pointer orderings, pointed-value comparisons, stack/registry flags,
    whole-list sortedness. Length is OBS_DIM regardless of list length.
    """
    v, n = env.values, env.n
    p1, p2, p3 = env.p1, env.p2, env.p3
    reg = env.registry
    out = np.empty(OBS_DIM, dtype=np.float64)
    out[0] = v[p1] / MAX_VALUE
    out[1] = v[p2] / MAX_VALUE
    out[2] = v[p3] / MAX_VALUE
    out[3] = p1 == 0
    out[4] = p1 == n - 1
    out[5] = p2 == 0
    out[6] = p2 == n - 1
    out[7] = p3 == 0
    out[8] = p3 == n - 1
    out[9] = p1 == p2
    out[10] = p1 == p3
    out[11] = p2 == p3
    out[12] = p1 < p2
    out[13] = p3 < p2
    out[14] = p1 <= p3
    out[15] = v[p1] < v[p2]
    out[16] = v[p3] < v[p2]
    out[17] = not env.stack
    out[18] = reg is None
    out[19] = reg is not None and reg == p1
    out[20] = env.is_sorted()
    return out


# ---------------------------------------------------------------------------
# Atomic operations
#
# Each operation is addressed by a canonical name plus a tuple of pointer
# slot codes (the non-NONE part of its argument tuple). The no-argument
# library variants (save_ptr_1, swap_pivot, ptr_2_left, ...) resolve to
# these canonical operations with fixed slots.

ATOMIC_OPS = ("stop", "save_ptr", "load_ptr", "push", "pop", "swap", "ptr_left", "ptr_right")

_PTR_SUBSETS = ((P1,), (P2,), (P3,), (P1, P2), (P1, P3), (P2, P3), (P1, P2, P3))

# Static argument domains, before any environment filtering. Symmetric or
# set-like operations list each pointer combination once, in increasing
# pointer order; other orderings are not valid calls.
ATOMIC_SLOT_SETS: dict[str, tuple[tuple[int, ...], ...]] = {
    "stop": ((),),
    "save_ptr": ((P1,), (P2,), (P3,)),
    "load_ptr": ((P1,), (P2,), (P3,)),
    "push": ((),),
    "pop": ((),),
    "swap": ((P1, P2), (P1, P3), (P2, P3)),
    "ptr_left": _PTR_SUBSETS,
    "ptr_right": _PTR_SUBSETS,
}


def atomic_feasible(env: EnvState, op: str, slots: tuple[int, ...]) -> bool:
    """Environment precondition of one atomic operation.

    `slots` must come from ATOMIC_SLOT_SETS[op]; static validity of the
    argument tuple is the caller's concern (see programs.atomic_feasible).
    """
    if op == "stop":
        return True
    if op == "save_ptr":
        return True
    if op == "load_ptr":
        return env.registry is not None
    if op == "push":
        p1, p2, p3 = env.p1, env.p2, env.p3
        return (p1 + 1 < p2) or (p1 - 1 > 0 and p3 < p1 - 1)
    if op == "pop":
        return len(env.stack) > 0
    if op == "swap":
        return env.ptr(slots[0]) != env.ptr(slots[1])
    if op == "ptr_left":
        return all(env.ptr(s) > 0 for s in slots)
    if op == "ptr_right":
        return all(env.ptr(s) < env.n - 1 for s in slots)
    raise EnvError(f"unknown atomic operation {op!r}")


def apply_atomic(env: EnvState, op: str, slots: tuple[int, ...]) -> EnvState:
    """Apply one atomic operation; the operation must be feasible.

    stop is the identity here; terminating the episode is the caller's job.
    """
    if not atomic_feasible(env, op, slots):
        raise EnvError(f"infeasible atomic call {op}{slots} in {env}")
    if op == "stop":
        return env
    # Each new state is built field by field: `dataclasses.replace` costs
    # several times the construction, and search applies an atomic call at
    # every new node.
    values, p1, p2, p3, stack = env.values, env.p1, env.p2, env.p3, env.stack
    if op == "save_ptr":
        return EnvState(values, p1, p2, p3, stack, env.ptr(slots[0]))
    if op == "load_ptr":
        # Loading consumes the registry so it reads empty afterwards.
        pos, slot = env.registry, slots[0]
        return EnvState(values, pos if slot == P1 else p1, pos if slot == P2 else p2,
                        pos if slot == P3 else p3, stack, None)
    if op == "push":
        # Right sub-range first, then left, so the left range sits on top
        # and is processed first after the next pop.
        frames = list(stack)
        if p1 + 1 < p2:
            frames.append(RangeFrame(p1 + 1, p2))
        if p1 - 1 > 0 and p3 < p1 - 1:
            frames.append(RangeFrame(p3, p1 - 1))
        return EnvState(values, p1, p2, p3, tuple(frames), env.registry)
    if op == "pop":
        frame = stack[-1]
        return EnvState(values, frame.lo, frame.hi, frame.lo, stack[:-1], env.registry)
    if op == "swap":
        i, j = env.ptr(slots[0]), env.ptr(slots[1])
        vals = list(values)
        vals[i], vals[j] = vals[j], vals[i]
        return EnvState(tuple(vals), p1, p2, p3, stack, env.registry)
    # ptr_left or ptr_right: `atomic_feasible` has rejected any other op.
    delta = -1 if op == "ptr_left" else 1
    return EnvState(values, p1 + delta if P1 in slots else p1,
                    p2 + delta if P2 in slots else p2,
                    p3 + delta if P3 in slots else p3, stack, env.registry)


# ---------------------------------------------------------------------------
# Tasks


class TaskId(Enum):
    """The four learned programs, each of which is also a training task."""

    PARTITION_UPDATE = "partition_update"
    PARTITION = "partition"
    QUICKSORT_UPDATE = "quicksort_update"
    QUICKSORT = "quicksort"

    @property
    def program_name(self) -> str:
        return self.value


TASKS = tuple(TaskId)


def task_precondition(task: TaskId, env: EnvState) -> bool:
    """Entry condition of a learned program.

    partition_update admits p1 == p3: the first scan step of a fresh
    partition starts exactly there, so a strict ordering would make the
    loop body infeasible on its first iteration. partition needs the store
    pointer p1 at or behind the scan pointer p3, as every state of its
    loop has it; ahead of it, the store index would run past the list.
    """
    if task is TaskId.PARTITION_UPDATE:
        return env.registry is not None and env.p1 <= env.p3 < env.p2
    if task is TaskId.PARTITION:
        return env.registry is not None and env.registry == env.p1 <= env.p3
    if task is TaskId.QUICKSORT_UPDATE:
        return len(env.stack) > 0 and env.registry is None
    if task is TaskId.QUICKSORT:
        return env.p1 == 0 and env.p3 == 0 and env.p2 == env.n - 1 and not env.stack
    raise EnvError(f"unknown task {task!r}")


def step_cap(task: TaskId, n: int) -> int:
    """Episode length limit per task, as a function of list length."""
    if task is TaskId.PARTITION_UPDATE:
        return 4
    if task is TaskId.PARTITION:
        return 2 * n + 4
    if task is TaskId.QUICKSORT_UPDATE:
        return 8
    if task is TaskId.QUICKSORT:
        return n + 4
    raise EnvError(f"unknown task {task!r}")


def _random_values(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.integers(0, MAX_VALUE + 1, size=n))


def sample_task_env(task: TaskId, n: int, rng: np.random.Generator) -> EnvState:
    """Random initial state satisfying the task's entry condition."""
    if n < 2:
        raise EnvError(f"length {n} too small for task {task.program_name}")
    vals = _random_values(n, rng)
    if task is TaskId.QUICKSORT:
        return EnvState(vals, 0, n - 1, 0)
    if task is TaskId.QUICKSORT_UPDATE:
        frames = []
        for _ in range(int(rng.integers(1, 3))):
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo, n))
            frames.append(RangeFrame(lo, hi))
        p1, p2, p3 = (int(x) for x in rng.integers(0, n, size=3))
        return EnvState(vals, p1, p2, p3, tuple(frames), None)
    if task is TaskId.PARTITION:
        lo = int(rng.integers(0, n - 1))
        hi = int(rng.integers(lo + 1, n))
        return EnvState(vals, lo, hi, lo, (), lo)
    if task is TaskId.PARTITION_UPDATE:
        p2 = int(rng.integers(1, n))
        p3 = int(rng.integers(0, p2))
        p1 = int(rng.integers(0, p3 + 1))
        reg = int(rng.integers(0, n))
        return EnvState(vals, p1, p2, p3, (), reg)
    raise EnvError(f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# Reference transformations and reward


def _lomuto_continue(env: EnvState) -> EnvState:
    """Run the store/scan partition loop from the current pointers.

    p1 is the store index, p3 the scan index, p2 the pivot position. From a
    fresh entry (p1 == p3 == lo) this is a full Lomuto partition of
    [p1..p2] with pivot value at p2.
    """
    vals = list(env.values)
    store, scan, hi = env.p1, env.p3, env.p2
    pivot = vals[hi]
    while scan < hi:
        if vals[scan] < pivot:
            vals[store], vals[scan] = vals[scan], vals[store]
            store += 1
        scan += 1
    vals[store], vals[hi] = vals[hi], vals[store]
    return replace(env, values=tuple(vals), p1=store, p3=hi)


def oracle_transform(task: TaskId, env: EnvState) -> EnvState:
    """Reference final state for a task started at `env`."""
    if not task_precondition(task, env):
        raise EnvError(f"state violates entry condition of {task.program_name}")
    if task is TaskId.PARTITION_UPDATE:
        vals = list(env.values)
        if vals[env.p3] < vals[env.p2]:
            vals[env.p1], vals[env.p3] = vals[env.p3], vals[env.p1]
            return replace(env, values=tuple(vals), p1=env.p1 + 1, p3=env.p3 + 1)
        return replace(env, p3=env.p3 + 1)
    if task is TaskId.PARTITION:
        return _lomuto_continue(env)
    if task is TaskId.QUICKSORT_UPDATE:
        e = apply_atomic(env, "pop", ())
        e = apply_atomic(e, "save_ptr", (P1,))
        e = _lomuto_continue(e)
        e = apply_atomic(e, "load_ptr", (P3,))
        if atomic_feasible(e, "push", ()):
            e = apply_atomic(e, "push", ())
        return e
    # QUICKSORT: `task_precondition` has rejected any other task.
    return replace(env, values=tuple(sorted(env.values)), stack=(), registry=None)


def reward(task: TaskId, e_initial: EnvState, e_final: EnvState) -> int:
    """1 iff the final state matches the task's reference outcome."""
    return reward_to_target(task, oracle_transform(task, e_initial), e_final)


def reward_to_target(task: TaskId, target: EnvState, e_final: EnvState) -> int:
    """`reward` given the reference outcome `target`, which is
    `oracle_transform(task, e_initial)`; a search that scores many final
    states of one start state computes it once.

    quicksort constrains only the sorted list and empty stack/registry;
    the inner tasks pin the complete state.
    """
    if task is TaskId.QUICKSORT:
        ok = (
            e_final.values == target.values
            and not e_final.stack
            and e_final.registry is None
        )
        return int(ok)
    return int(e_final == target)


# ---------------------------------------------------------------------------
# Text records


def env_to_record(env: EnvState) -> str:
    """One-line text form: `list=..;p=..;stack=lo:hi|..;reg=..`.

    Stack frames appear bottom first, top last. An empty registry is `-`.
    """
    vals = ",".join(str(v) for v in env.values)
    ptrs = f"{env.p1},{env.p2},{env.p3}"
    stack = "|".join(f"{f.lo}:{f.hi}" for f in env.stack)
    reg = "-" if env.registry is None else str(env.registry)
    return f"list={vals};p={ptrs};stack={stack};reg={reg}"


def env_from_record(record: str) -> EnvState:
    """Parse and validate the text form produced by env_to_record."""
    parts = record.strip().split(";")
    if len(parts) != 4:
        raise EnvError(f"malformed record (expected 4 fields): {record!r}")
    fields = {}
    for part, key in zip(parts, ("list", "p", "stack", "reg")):
        prefix = key + "="
        if not part.startswith(prefix):
            raise EnvError(f"malformed record field {part!r} (expected {key}=...)")
        fields[key] = part[len(prefix):]
    try:
        values = [int(v) for v in fields["list"].split(",")]
        p1, p2, p3 = (int(v) for v in fields["p"].split(","))
        stack = []
        if fields["stack"]:
            for item in fields["stack"].split("|"):
                lo, hi = item.split(":")
                stack.append((int(lo), int(hi)))
        reg = None if fields["reg"] == "-" else int(fields["reg"])
    except (ValueError, IndexError) as exc:
        raise EnvError(f"malformed record {record!r}: {exc}") from exc
    return make_env(values, p1, p2, p3, stack, reg)
