"""Program library: specifications, levels, argument codec, feasibility.

Two library modes exist. In ARGS mode the atomic actions take argument
tuples naming pointers; in NO_ARGS mode every pointer choice is baked into
a separate atomic action (the cartesian-product baseline) and all programs
take the empty tuple. Learned programs take the empty tuple in both modes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Optional

import numpy as np

from . import env as E
from .env import NONE, P1, P2, P3, EnvState, TaskId

ArgTuple = tuple[int, int, int]

EMPTY_ARGS: ArgTuple = (NONE, NONE, NONE)

ARG_SPACE = 64  # 4 ** 3 argument-tuple indices

MODE_ARGS = "args"
MODE_NO_ARGS = "noargs"

MANIFEST_VERSION = 1


class LibraryError(ValueError):
    """Raised for unknown programs, bad modes, or manifest mismatches."""


def args_encode(args: ArgTuple) -> int:
    """Bijection onto [0, 64): base-4 digits with NONE=0, P1=1, P2=2, P3=3."""
    s1, s2, s3 = args
    for s in args:
        if not (0 <= s <= 3):
            raise LibraryError(f"bad argument slot {s}")
    return 16 * s1 + 4 * s2 + s3


def args_decode(index: int) -> ArgTuple:
    """Inverse of args_encode."""
    if not (0 <= index < ARG_SPACE):
        raise LibraryError(f"argument index {index} outside [0, {ARG_SPACE})")
    return (index // 16, (index // 4) % 4, index % 4)


def format_args(args: ArgTuple) -> str:
    """Human form, e.g. `(P1,P3)`; the empty tuple renders as `()`."""
    live = [E.SLOT_NAMES[s] for s in args if s != NONE]
    return "(" + ",".join(live) + ")"


def _slots_to_args(slots: tuple[int, ...]) -> ArgTuple:
    padded = tuple(slots) + (NONE,) * (3 - len(slots))
    return padded  # type: ignore[return-value]


def _args_to_slots(args: ArgTuple) -> tuple[int, ...]:
    return tuple(s for s in args if s != NONE)


@dataclass(frozen=True)
class ProgramSpec:
    """One callable unit: an atomic action or a learned program.

    `op` is the canonical environment operation behind an atomic;
    `fixed_slots` carries the baked-in pointer choice of the NO_ARGS
    variants (None means the slots come from the argument tuple).
    """

    name: str
    level: int
    arity: int
    kind: str  # "atomic" | "learned"
    op: Optional[str] = None
    fixed_slots: Optional[tuple[int, ...]] = None

    @property
    def is_atomic(self) -> bool:
        return self.kind == "atomic"


_LEARNED = (
    ProgramSpec("partition_update", 1, 0, "learned"),
    ProgramSpec("partition", 2, 0, "learned"),
    ProgramSpec("quicksort_update", 4, 0, "learned"),
    ProgramSpec("quicksort", 5, 0, "learned"),
)

_ATOMICS_ARGS = (
    ProgramSpec("stop", 0, 0, "atomic", op="stop"),
    ProgramSpec("save_ptr", 0, 1, "atomic", op="save_ptr"),
    ProgramSpec("load_ptr", 0, 1, "atomic", op="load_ptr"),
    ProgramSpec("push", 0, 0, "atomic", op="push"),
    ProgramSpec("pop", 0, 0, "atomic", op="pop"),
    ProgramSpec("swap", 0, 2, "atomic", op="swap"),
    ProgramSpec("ptr_left", 0, 3, "atomic", op="ptr_left"),
    ProgramSpec("ptr_right", 0, 3, "atomic", op="ptr_right"),
)

_ATOMICS_NO_ARGS = (
    ProgramSpec("stop", 0, 0, "atomic", op="stop", fixed_slots=()),
    ProgramSpec("save_ptr_1", 0, 0, "atomic", op="save_ptr", fixed_slots=(P1,)),
    ProgramSpec("load_ptr_1", 0, 0, "atomic", op="load_ptr", fixed_slots=(P1,)),
    ProgramSpec("push", 0, 0, "atomic", op="push", fixed_slots=()),
    ProgramSpec("pop", 0, 0, "atomic", op="pop", fixed_slots=()),
    ProgramSpec("swap", 0, 0, "atomic", op="swap", fixed_slots=(P1, P2)),
    ProgramSpec("swap_pivot", 0, 0, "atomic", op="swap", fixed_slots=(P1, P3)),
    ProgramSpec("ptr_1_left", 0, 0, "atomic", op="ptr_left", fixed_slots=(P1,)),
    ProgramSpec("ptr_2_left", 0, 0, "atomic", op="ptr_left", fixed_slots=(P2,)),
    ProgramSpec("ptr_3_left", 0, 0, "atomic", op="ptr_left", fixed_slots=(P3,)),
    ProgramSpec("ptr_1_right", 0, 0, "atomic", op="ptr_right", fixed_slots=(P1,)),
    ProgramSpec("ptr_2_right", 0, 0, "atomic", op="ptr_right", fixed_slots=(P2,)),
    ProgramSpec("ptr_3_right", 0, 0, "atomic", op="ptr_right", fixed_slots=(P3,)),
)


class ProgramLibrary:
    """Ordered, immutable program collection for one mode.

    The ordering is part of the contract: policy-head dimensions and
    checkpoint manifests depend on it. Every library of a mode shares that
    mode's action table.
    """

    def __init__(self, mode: str):
        if mode == MODE_ARGS:
            atomics = _ATOMICS_ARGS
        elif mode == MODE_NO_ARGS:
            atomics = _ATOMICS_NO_ARGS
        else:
            raise LibraryError(f"unknown library mode {mode!r}")
        self.mode = mode
        self.programs: tuple[ProgramSpec, ...] = atomics + _LEARNED
        if mode not in _TABLES:
            _TABLES[mode] = ActionTable(self.programs)
        self.table = _TABLES[mode]
        self._index = {p.name: i for i, p in enumerate(self.programs)}
        self.learned: tuple[ProgramSpec, ...] = _LEARNED
        self._task_index = {p.name: i for i, p in enumerate(_LEARNED)}

    def __len__(self) -> int:
        return len(self.programs)

    def __iter__(self):
        return iter(self.programs)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise LibraryError(f"unknown program {name!r}") from None

    def spec(self, name: str) -> ProgramSpec:
        return self.programs[self.index(name)]

    def task_index(self, task: TaskId | str) -> int:
        """Row of the program-embedding matrix for a learned program."""
        name = task.program_name if isinstance(task, TaskId) else task
        try:
            return self._task_index[name]
        except KeyError:
            raise LibraryError(f"not a learned program: {name!r}") from None

    def manifest(self) -> dict:
        """Versioned JSON-ready description embedded in checkpoints."""
        return {
            "version": MANIFEST_VERSION,
            "mode": self.mode,
            "programs": [
                {"name": p.name, "level": p.level, "arity": p.arity, "kind": p.kind, "index": i}
                for i, p in enumerate(self.programs)
            ],
        }


def build_library(mode: str) -> ProgramLibrary:
    return ProgramLibrary(mode)


@cache
def valid_arg_tuples(spec: ProgramSpec) -> tuple[ArgTuple, ...]:
    """Static argument domain of a program, sorted by encoded index."""
    if spec.fixed_slots is not None or not spec.is_atomic:
        return (EMPTY_ARGS,)
    tuples = [_slots_to_args(s) for s in E.ATOMIC_SLOT_SETS[spec.op]]
    return tuple(sorted(tuples, key=args_encode))


def _resolve_slots(spec: ProgramSpec, args: ArgTuple) -> tuple[int, ...]:
    if spec.fixed_slots is not None:
        return spec.fixed_slots
    return _args_to_slots(args)


def atomic_feasible(environment: EnvState, spec: ProgramSpec, args: ArgTuple) -> bool:
    """True iff the argument tuple is statically valid for the action and
    the environment precondition holds."""
    if not spec.is_atomic:
        raise LibraryError(f"{spec.name} is not atomic")
    if args not in valid_arg_tuples(spec):
        return False
    return E.atomic_feasible(environment, spec.op, _resolve_slots(spec, args))


def apply_atomic(environment: EnvState, spec: ProgramSpec, args: ArgTuple) -> EnvState:
    """Apply a feasible atomic program call; stop is the identity."""
    if not spec.is_atomic:
        raise LibraryError(f"{spec.name} is not atomic")
    if args not in valid_arg_tuples(spec):
        raise E.EnvError(f"invalid argument tuple {args} for {spec.name}")
    return E.apply_atomic(environment, spec.op, _resolve_slots(spec, args))


def program_precondition(spec: ProgramSpec, environment: EnvState) -> bool:
    """Entry condition of a learned program."""
    if spec.is_atomic:
        raise LibraryError(f"{spec.name} is atomic; use atomic_feasible")
    return E.task_precondition(TaskId(spec.name), environment)


def pair_feasible(environment: EnvState, spec: ProgramSpec, args: ArgTuple) -> bool:
    if spec.is_atomic:
        return atomic_feasible(environment, spec, args)
    return args == EMPTY_ARGS and program_precondition(spec, environment)


# ---------------------------------------------------------------------------
# Action table
#
# `pair_feasible` is the one definition of when a pair is callable. Every
# precondition it reads is a predicate that `_signature` packs into a bit:
# registry, stack, push, each pointer > 0 and < n-1, each pointer pair
# distinct (the 12 atomic bits), and the entry condition of each learned
# program below the caller (one fixed bit per task above those). States
# with one signature therefore have one feasible set, and each library mode
# keeps one table that memoizes it per (signature, caller level). A new
# precondition must read only predicates that `_signature` encodes, or the
# memo would hand one state the set of another.

_ENTRY_BIT = {task.program_name: 1 << (12 + i) for i, task in enumerate(TaskId)}


def _signature(environment: EnvState, entry_checks: Iterable[tuple[int, TaskId]]) -> int:
    """Bits of the predicates the state satisfies. Learned entry conditions
    are tested only for the (bit, task) pairs in `entry_checks`."""
    e = environment
    p1, p2, p3, last = e.p1, e.p2, e.p3, len(e.values) - 1
    sig = ((e.registry is not None)
           | bool(e.stack) << 1
           | E.atomic_feasible(e, "push", ()) << 2
           | (p1 > 0) << 3 | (p2 > 0) << 4 | (p3 > 0) << 5
           | (p1 < last) << 6 | (p2 < last) << 7 | (p3 < last) << 8
           | (p1 != p2) << 9 | (p1 != p3) << 10 | (p2 != p3) << 11)
    for bit, task in entry_checks:
        if E.task_precondition(task, e):
            sig |= bit
    return sig


class FeasibleSet(list):
    """Feasible `(spec, args)` pairs with their policy-head indices.

    `prog_idx[k]`/`arg_idx[k]` are the program index and encoded argument
    of pair k; `prog_mask`/`arg_mask` mark the programs and arguments the
    pairs use. Sets from `feasible_pairs` are shared by every caller that
    meets the same signature, so they must not be mutated.
    """

    def __init__(self, pairs, prog_idx: np.ndarray, arg_idx: np.ndarray, n_programs: int):
        super().__init__(pairs)
        self.prog_idx = prog_idx
        self.arg_idx = arg_idx
        self.n_programs = n_programs

    def take(self, rows: np.ndarray) -> "FeasibleSet":
        """The pairs at `rows`, in that order."""
        return FeasibleSet([self[i] for i in rows], self.prog_idx[rows],
                           self.arg_idx[rows], self.n_programs)

    @cached_property
    def prog_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_programs, dtype=bool)
        mask[self.prog_idx] = True
        return mask

    @cached_property
    def arg_mask(self) -> np.ndarray:
        mask = np.zeros(ARG_SPACE, dtype=bool)
        mask[self.arg_idx] = True
        return mask

    @cached_property
    def prog_support(self) -> np.ndarray:
        """Distinct program indices of the pairs, ascending."""
        return np.flatnonzero(self.prog_mask)

    @cached_property
    def rows_of(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Program index -> (its pairs' rows, their argument indices)."""
        out = {}
        for p in self.prog_support:
            rows = np.flatnonzero(self.prog_idx == p)
            out[int(p)] = (rows, self.arg_idx[rows])
        return out


class ActionTable:
    """Every (program, argument tuple) pair of one library mode, in library
    order and then encoded-argument order, and a memo of `pair_feasible`
    over them per (signature, caller level). The memo is right only while
    each precondition reads predicates that `_signature` encodes."""

    def __init__(self, programs: tuple[ProgramSpec, ...]):
        rows = [(i, spec, args) for i, spec in enumerate(programs)
                for args in valid_arg_tuples(spec)]
        self.pairs = [(spec, args) for _, spec, args in rows]
        self.prog_idx = np.array([i for i, _, _ in rows], dtype=np.intp)
        self.arg_idx = np.array([args_encode(args) for _, _, args in rows], dtype=np.intp)
        self.programs = programs
        self._entry_checks: dict[int, tuple[tuple[int, TaskId], ...]] = {}
        self._memo: dict[tuple[int, int], FeasibleSet] = {}

    def feasible(self, environment: EnvState, caller_level: int) -> FeasibleSet:
        checks = self._entry_checks.get(caller_level)
        if checks is None:
            checks = self._entry_checks[caller_level] = tuple(
                (_ENTRY_BIT[spec.name], TaskId(spec.name)) for spec in self.programs
                if not spec.is_atomic and spec.level < caller_level)
        key = (_signature(environment, checks), caller_level)
        found = self._memo.get(key)
        if found is None:
            # The first state of a signature decides for all that share it.
            rows = [k for k, (spec, args) in enumerate(self.pairs)
                    if spec.level < caller_level and pair_feasible(environment, spec, args)]
            found = self._memo[key] = FeasibleSet(
                [self.pairs[k] for k in rows], self.prog_idx[rows], self.arg_idx[rows],
                len(self.programs))
        return found


_TABLES: dict[str, ActionTable] = {}


def feasible_pairs(
    environment: EnvState, caller_level: int, lib: ProgramLibrary
) -> FeasibleSet:
    """All pairs below the caller's level that `pair_feasible` admits.

    Order is deterministic: library order, then encoded argument order.
    The length of the result is the branching factor M of the search.
    The result is the library table's memo for the state's signature: it is
    shared with other callers and must not be mutated.
    """
    return lib.table.feasible(environment, caller_level)
