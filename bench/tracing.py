"""Span tracing of `argsynth`'s layers, installed from outside the program.

`install` replaces each traced public function with a wrapper in every
`argsynth` module namespace that holds it, so calls made through
`from .x import f` bindings are caught as well as calls through the module.
Each call records a span (name, parent span, start, end) in flat arrays
kept in memory; `Tracer.write` saves them when the run ends. Self time is
a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

_now = time.perf_counter_ns

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[list[int]] = []  # [span index, name id, child ns]
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = {}
        self.episode_in_iteration_ns = 0

    def id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1][1]] if self._stack else None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, nid: int) -> None:
        self._stack.append([len(self.start), nid, 0])
        self.name.append(nid)
        self.parent.append(self._stack[-2][0] if len(self._stack) > 1 else -1)
        self.end.append(0)
        self.start.append(_now())

    def close(self) -> None:
        t = _now()
        idx, nid, child = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child
        if self._stack:
            outer = self._stack[-1]
            outer[2] += dur
            if (self.names[nid] == "trainer.run_episode"
                    and self.names[outer[1]] == "trainer.run_iteration"):
                self.episode_in_iteration_ns += dur

    def wrap(self, name: str, fn, after=None):
        """`after(tracer, args, kwargs, result, parent_name)` runs once the
        span is closed and may add counts."""
        nid = self.id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.parent_name()
            self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(self, args, kwargs, result, parent)
            return result

        return traced

    def op(self, fn):
        """Wrap one benchmark operation in a root span."""
        return self.wrap(OP, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start_ns=np.frombuffer(self.start, np.int64),
            end_ns=np.frombuffer(self.end, np.int64))

    # -- per-layer metrics ---------------------------------------------------

    def _ms(self, name: str, own: bool = False) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return (self.self_ns if own else self.total_ns)[nid] / 1e6

    def _calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counts.get
        sims = c("simulations", 0)
        feas_calls = self._calls("programs.feasible_pairs")
        expand_calls = self._calls("search.expand")
        return {
            "env.observe.calls": (self._calls("env.observe"), "count"),
            "env.observe.ms": (self._ms("env.observe"), "ms"),
            "env.reward.calls": (self._calls("env.reward"), "count"),
            "env.reward.ms": (self._ms("env.reward"), "ms"),
            "programs.feasible_pairs.calls": (feas_calls, "count"),
            "programs.feasible_pairs.ms": (self._ms("programs.feasible_pairs"), "ms"),
            "programs.feasible_pairs.mean_pairs": (
                c("feasible_pairs", 0) / feas_calls if feas_calls else 0.0, "count"),
            "programs.apply_atomic.calls": (self._calls("programs.apply_atomic"), "count"),
            "programs.apply_atomic.ms": (self._ms("programs.apply_atomic"), "ms"),
            "network.forward.calls": (self._calls("network.forward"), "count"),
            "network.forward.ms": (self._ms("network.forward"), "ms"),
            "network.masked_distributions.ms": (self._ms("network.masked_distributions"), "ms"),
            "network.greedy_select.ms": (self._ms("network.greedy_select"), "ms"),
            "network.loss_and_grads.ms": (self._ms("network.loss_and_grads"), "ms"),
            "network.loss_and_grads.trace_steps": (c("trace_steps", 0), "count"),
            "network.train_step.self_ms": (self._ms("network.train_step", own=True), "ms"),
            "network.checkpoint_load.ms": (self._ms("network.checkpoint_load"), "ms"),
            "search.run_search.calls": (self._calls("search.run_search"), "count"),
            "search.run_search.self_ms": (self._ms("search.run_search", own=True), "ms"),
            "search.simulations": (sims, "count"),
            "search.nodes_expanded": (c("edges", 0), "count"),
            "search.expand.ms": (self._ms("search.expand"), "ms"),
            "search.puct_select.calls": (self._calls("search.puct_select"), "count"),
            "search.puct_select.ms": (self._ms("search.puct_select"), "ms"),
            "search.expansions_per_simulation": (
                expand_calls / sims if sims else 0.0, "ratio"),
            "search.edges_per_feasible_pair": (
                c("edges", 0) / c("offered", 1) if c("offered") else 0.0, "ratio"),
            "search.recurse_subprogram.calls": (self._calls("search.recurse_subprogram"), "count"),
            "search.recurse_subprogram.memo_hits": (c("memo_hits", 0), "count"),
            "search.recurse_subprogram.failed": (c("subcalls_failed", 0), "count"),
            "search.recurse_subprogram.ms": (self._ms("search.recurse_subprogram"), "ms"),
            "search.execute_greedy.calls": (self._calls("search.execute_greedy"), "count"),
            "search.execute_greedy.steps": (c("greedy_steps", 0), "count"),
            "search.execute_greedy.self_ms": (self._ms("search.execute_greedy", own=True), "ms"),
            "trainer.run_episode.ms": (self._ms("trainer.run_episode"), "ms"),
            "trainer.commit.ms": (
                self._ms("trainer.run_iteration") - self.episode_in_iteration_ns / 1e6, "ms"),
            "trainer.episodes_solved": (c("episodes_solved", 0), "count"),
            "trainer.evaluate_generalization.ms": (
                self._ms("trainer.evaluate_generalization"), "ms"),
        }


# -- what is traced, and the counts taken at each boundary -------------------


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _after_feasible(t, args, kwargs, result, parent):
    t.count("feasible_pairs", len(result))


def _after_expand(t, args, kwargs, result, parent):
    node = args[0]
    t.count("edges", len(node.edges))
    t.count("offered", len(node.feasible))


def _after_run_search(t, args, kwargs, result, parent):
    t.count("simulations", _arg(args, kwargs, 6, "cfg").simulations)


def _after_greedy_select(t, args, kwargs, result, parent):
    if parent == "search.execute_greedy":
        t.count("greedy_steps")


def _after_loss_and_grads(t, args, kwargs, result, parent):
    t.count("trace_steps", sum(len(tr.steps) for tr in _arg(args, kwargs, 1, "batch")))


def _after_run_episode(t, args, kwargs, result, parent):
    t.count("episodes_solved", int(result[0].reward == 1))


def _recurse_counted(tracer: Tracer, fn):
    """recurse_subprogram, with a memo hit read off its cache before the
    call and a failure read off its result."""
    traced = tracer.wrap("search.recurse_subprogram", fn)

    @functools.wraps(fn)
    def counted(env, spec, *args, **kwargs):
        cache = _arg(args, kwargs, 5, "cache")
        if cache is not None and (spec.name, env) in cache:
            tracer.count("memo_hits")
        result = traced(env, spec, *args, **kwargs)
        if not result[1]:
            tracer.count("subcalls_failed")
        return result

    return counted


TRACED = (
    ("env", "observe", None),
    ("env", "reward", None),
    ("programs", "feasible_pairs", _after_feasible),
    ("programs", "apply_atomic", None),
    ("network", "forward", None),
    ("network", "masked_distributions", None),
    ("network", "greedy_select", _after_greedy_select),
    ("network", "loss_and_grads", _after_loss_and_grads),
    ("network", "train_step", None),
    ("network", "checkpoint_load", None),
    ("search", "run_search", _after_run_search),
    ("search", "expand", _after_expand),
    ("search", "puct_select", None),
    ("search", "execute_greedy", None),
    ("trainer", "run_episode", _after_run_episode),
    ("trainer", "evaluate_generalization", None),
)


def install(A, tracer: Tracer) -> None:
    """Trace the layers of the imported package `A` (its modules are
    patched in place; import the package afresh to undo)."""
    modules = [A] + [getattr(A, m) for m in
                     ("env", "programs", "network", "search", "trainer", "expert",
                      "config", "cli") if hasattr(A, m)]
    swaps = []
    for mod, fname, after in TRACED:
        orig = getattr(getattr(A, mod), fname)
        swaps.append((orig, tracer.wrap(f"{mod}.{fname}", orig, after)))
    orig = A.search.recurse_subprogram
    swaps.append((orig, _recurse_counted(tracer, orig)))
    for orig, wrapper in swaps:
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)
    trainer_cls = A.trainer.Trainer
    trainer_cls.run_iteration = tracer.wrap("trainer.run_iteration",
                                            trainer_cls.run_iteration)
