"""Reference outcomes of the four tasks, written apart from `argsynth`.

A state is a plain tuple `(values, p1, p2, p3, stack, registry)`: `values`
a tuple of ints, `stack` a tuple of `(lo, hi)` pairs with the top last, and
`registry` an int or None. Nothing here imports the program, so a fault in
its oracle or its reward cannot hide itself from these checks.
"""
from __future__ import annotations

State = tuple  # (values, p1, p2, p3, stack, registry)


def plain(env) -> State:
    """Read any object with the program's state fields into a plain tuple."""
    return (tuple(env.values), env.p1, env.p2, env.p3,
            tuple((f.lo, f.hi) for f in env.stack), env.registry)


def lomuto(values: tuple, store: int, scan: int, hi: int) -> tuple[tuple, int]:
    """Lomuto partition of `values[store..hi]` around the pivot `values[hi]`.

    Elements below the pivot are swapped down to the store index in scan
    order, then the pivot is swapped into the store index. Returns the new
    values and the pivot's final position.
    """
    if not (0 <= store <= scan <= hi < len(values)):
        raise ValueError(f"no Lomuto partition from store={store}, scan={scan}, hi={hi}")
    v = list(values)
    pivot = v[hi]
    for i in range(scan, hi):
        if v[i] < pivot:
            v[store], v[i] = v[i], v[store]
            store += 1
    v[store], v[hi] = v[hi], v[store]
    return tuple(v), store


def partition_update(s: State) -> State:
    """One scan step: move the scan pointer on, swapping a small element
    down to the store pointer first."""
    values, p1, p2, p3, stack, reg = s
    if values[p3] < values[p2]:
        v = list(values)
        v[p1], v[p3] = v[p3], v[p1]
        return (tuple(v), p1 + 1, p2, p3 + 1, stack, reg)
    return (values, p1, p2, p3 + 1, stack, reg)


def partition(s: State) -> State:
    """The rest of a partition: the scan runs to the pivot at p2, and the
    store pointer ends on the pivot's final position."""
    values, p1, p2, p3, stack, reg = s
    out, store = lomuto(values, p1, p3, p2)
    return (out, store, p2, p2, stack, reg)


def quicksort_update(s: State) -> State:
    """Pop a range, partition it, point p3 at its low end and push the
    sub-ranges that still need sorting."""
    values, _, _, _, stack, _ = s
    lo, hi = stack[-1]
    stack = stack[:-1]
    out, mid = lomuto(values, lo, lo, hi)
    p1, p2, p3 = mid, hi, lo
    frames = list(stack)
    if p1 + 1 < p2:
        frames.append((p1 + 1, p2))
    if p1 - 1 > 0 and p3 < p1 - 1:
        frames.append((p3, p1 - 1))
    return (out, p1, p2, p3, tuple(frames), None)


INNER_TASKS = {
    "partition_update": partition_update,
    "partition": partition,
    "quicksort_update": quicksort_update,
}


def solved(task: str, entry: State, final: State) -> int:
    """1 iff `final` is the reference outcome of `task` started at `entry`.

    quicksort is judged on the list, the stack and the registry only; the
    other tasks pin the whole state.
    """
    if task == "quicksort":
        values, _, _, _, stack, reg = final
        return int(values == tuple(sorted(entry[0])) and not stack and reg is None)
    return int(final == INNER_TASKS[task](entry))

