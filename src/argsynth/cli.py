"""Command-line surface: train, eval, run, oracle-check.

Exit codes are stable: 0 on success, 1 for runtime failures (missing or
incompatible files, a network whose outputs are not finite, a failing
oracle check), 2 for usage or config errors.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import env as E
from . import programs as P
from .config import ConfigError, RunConfig, checked, load_config
from .env import TaskId, TASKS, env_to_record, make_env, sample_task_env
from .expert import ExpertPolicy, expert_available
from .network import CheckpointError, checkpoint_load, checkpoint_save
from .programs import build_library, format_args
from .search import NetworkGreedyPolicy, SearchError, execute_greedy
from .trainer import Trainer, accuracy_csv, csv_line, evaluate_generalization

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _load(args) -> RunConfig:
    return load_config(getattr(args, "config", None))


def _entry_env(task: TaskId, values: list[int]) -> E.EnvState:
    """Canonical start state for running a named program on a list."""
    n = len(values)
    if task is TaskId.QUICKSORT:
        return make_env(values, 0, n - 1, 0)
    if task is TaskId.QUICKSORT_UPDATE:
        return make_env(values, 0, n - 1, 0, stack=[(0, n - 1)])
    # partition / partition_update start with the full range and a saved lo.
    return make_env(values, 0, n - 1, 0, registry=0)


def cmd_train(args) -> int:
    cfg = _load(args)
    if args.iterations is not None:
        cfg.iterations = args.iterations
    if args.seed is not None:
        cfg.seed = args.seed
    checked(cfg)
    out_dir = args.output_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    trainer = Trainer(cfg.to_train_config())
    for i in range(cfg.iterations):
        row = trainer.run_iteration()
        print(csv_line(row[c] for c in
                       ("iteration", "task", "successes", "ema", "loss",
                        "nodes_expanded_cum")))
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write(trainer.metrics_csv())
    with open(os.path.join(out_dir, "search_stats.csv"), "w") as fh:
        fh.write(trainer.search_csv())
    with open(os.path.join(out_dir, "failed_envs.txt"), "w") as fh:
        fh.write(trainer.dump_failed_envs())
    ckpt = os.path.join(out_dir, cfg.checkpoint)
    checkpoint_save(trainer.params, trainer.opt, trainer.lib.manifest(), ckpt)
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def _load_checkpoint(path: str, lib) -> "tuple":
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    return checkpoint_load(path, expected_manifest=lib.manifest())


def cmd_eval(args) -> int:
    cfg = _load(args)
    lib = build_library(cfg.library_mode)
    params, _, _ = _load_checkpoint(args.checkpoint, lib)
    policy = NetworkGreedyPolicy(params, lib)
    rows = evaluate_generalization(
        policy, lib, seed=cfg.seed, lengths=cfg.eval_lengths,
        trials=cfg.eval_trials)
    text = accuracy_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"accuracy table written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load(args)
    lib = build_library(cfg.library_mode)
    try:
        values = [int(part) for part in args.list.split(",")]
    except ValueError:
        raise ConfigError(f"invalid list literal {args.list!r}")
    try:
        task = TaskId(args.program)
    except ValueError:
        raise ConfigError(
            f"unknown program {args.program!r} "
            f"(choose from {', '.join(t.program_name for t in TASKS)})")
    try:
        env = _entry_env(task, values)
    except E.EnvError as exc:
        raise ConfigError(f"invalid list {args.list!r}: {exc}")
    params, _, _ = _load_checkpoint(args.checkpoint, lib)
    policy = NetworkGreedyPolicy(params, lib)
    trace: list = []
    print(f"{task.program_name}()  on  {env_to_record(env)}")
    r, final = execute_greedy(env, task, policy, lib, trace=trace)
    for entry in trace:
        print("  " * (entry.depth + 1) + entry.name + format_args(entry.args))
    print(f"final: {env_to_record(final)}")
    print(f"reward: {r}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    cfg = _load(args)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    lib = build_library(cfg.library_mode)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    lengths = list(range(2, 8)) + [20]
    all_ok = True
    for task in TASKS:
        if not expert_available(task, lib.mode):
            print(f"{task.program_name}: SKIP (no reference script in "
                  f"{lib.mode} mode)")
            continue
        failures = 0
        for i in range(args.trials):
            n = lengths[i % len(lengths)]
            env = sample_task_env(task, n, rng)
            policy = ExpertPolicy(lib)
            r, _ = execute_greedy(env, task, policy, lib)
            failures += 1 - r
        status = "PASS" if failures == 0 else f"FAIL ({failures}/{args.trials})"
        print(f"{task.program_name}: {status}")
        all_ok = all_ok and failures == 0
    return EXIT_OK if all_ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="argsynth",
        description="Learn argument-accepting list programs from reward "
                    "alone with recursive (approximate) MCTS.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run training iterations; writes "
                             "metrics CSVs and a checkpoint")
    p_train.add_argument("--config", help="path to a `key = value` config file")
    p_train.add_argument("--iterations", type=int, help="override iteration count")
    p_train.add_argument("--seed", type=int, help="override the run seed")
    p_train.add_argument("--output-dir", help="directory for emitted files")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="accuracy grid over tasks and lengths")
    p_eval.add_argument("--config")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", help="write the accuracy CSV here instead of stdout")
    p_eval.set_defaults(func=cmd_eval)

    p_run = sub.add_parser("run", help="execute a learned program on a list "
                           "and print its call trace")
    p_run.add_argument("--config")
    p_run.add_argument("--program", required=True)
    p_run.add_argument("--list", required=True, help="comma-separated integers")
    p_run.add_argument("--checkpoint", required=True)
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle-check", help="verify the built-in "
                              "reference scripts solve every task")
    p_oracle.add_argument("--config")
    p_oracle.add_argument("--trials", type=int, default=200)
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckpointError, P.LibraryError, E.EnvError, SearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
