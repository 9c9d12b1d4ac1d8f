"""The benchmark's reference outcomes agree with executed expert scripts.

    python3 bench/check_reference.py        (or: python -m pytest bench/check_reference.py)

For entry states drawn by `sample_task_env` at lengths 2..60, the final
state of `expert_script` run through `execute_greedy` must be the reference
outcome, and a perturbed final state must not be. This is what lets the
benchmark check the program's outputs with `reference` alone.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import argsynth as A  # noqa: E402
import reference as R  # noqa: E402

LENGTHS = (2, 3, 4, 5, 7, 10, 20, 40, 60)
PER_LENGTH = 8


def _expert_runs(task):
    lib = A.build_library("args")
    rng = np.random.Generator(np.random.PCG64(2024))
    for n in LENGTHS:
        for _ in range(PER_LENGTH):
            env = A.sample_task_env(task, n, rng)
            r, final = A.execute_greedy(env, task, A.ExpertPolicy(lib), lib)
            yield env, r, final


def _perturbed(s):
    values, p1, p2, p3, stack, reg = s
    yield (values, p1, p2, p3, stack, 0 if reg is None else None)
    yield (values, p1, p2, p3, stack + ((0, 0),), reg)
    distinct = [i for i in range(1, len(values)) if values[i] != values[0]]
    if distinct:
        v = list(values)
        v[0], v[distinct[0]] = v[distinct[0]], v[0]
        yield (tuple(v), p1, p2, p3, stack, reg)


def _check_task(task, pinned: bool):
    name = task.program_name
    for env, r, final in _expert_runs(task):
        entry, got = R.plain(env), R.plain(final)
        assert r == 1, (name, entry)
        assert R.solved(name, entry, got) == 1, (name, entry, got)
        for bad in _perturbed(got):
            assert R.solved(name, entry, bad) == 0, (name, entry, bad)
        if pinned:
            moved = (got[0], got[1], got[2], (got[3] + 1) % len(got[0]), got[4], got[5])
            assert R.solved(name, entry, moved) == 0, (name, entry, moved)


def test_partition_update():
    _check_task(A.TaskId.PARTITION_UPDATE, pinned=True)


def test_partition():
    _check_task(A.TaskId.PARTITION, pinned=True)


def test_quicksort_update():
    _check_task(A.TaskId.QUICKSORT_UPDATE, pinned=True)


def test_quicksort():
    _check_task(A.TaskId.QUICKSORT, pinned=False)


def test_lomuto_splits_around_the_pivot():
    rng = np.random.Generator(np.random.PCG64(7))
    for n in LENGTHS:
        values = tuple(int(v) for v in rng.integers(0, 11, size=n))
        out, mid = R.lomuto(values, 0, 0, n - 1)
        assert sorted(out) == sorted(values)
        assert out[mid] == values[-1]
        assert all(v < out[mid] for v in out[:mid])
        assert all(v >= out[mid] for v in out[mid + 1:])


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
