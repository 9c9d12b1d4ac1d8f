"""Paired benchmark runs of two checkouts of this repository.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs N \
        --seconds S --seeds 351 352 ...

Each pair runs `bench/run.py --workload W --seed SEED --seconds S --trace 0`
once in each checkout, from that checkout's root, one run after the other.
The side that goes first alternates: the parent in even pairs, the change
in odd ones, so that a drift of the host's speed does not favour one side.
Pair i uses seed `seeds[i % len(seeds)]`.

For every end-to-end metric that the change's `BENCHMARK.json` declares,
the summary gives each side's median and quartiles, the change's median
against the parent's, and the pairs the change won (ties count for
neither). A gain is claimed only when the change wins at least nine tenths
of the pairs and the medians differ by more than the parent's
interquartile range. `failed/attempted` sums each side's operations.

Below the table come the two factors of `ops_per_s`, parsed from each run's
standard-error line `raw rates R1 R2 ... /s, host slowdown F from ...`:
each side's median raw round rate (the median over runs of each run's
median round rate) with the pairs the change won on it, and each side's
median host-slowdown factor. A difference in `ops_per_s` that the raw rates
do not share comes from the host-speed probe, not from the work timed.

Exits 1 when any run reports `correct: false` or does not finish with a
result.

The script runs the benchmark as a separate process and imports nothing of
the program.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

RATES_LINE = re.compile(r"raw rates ([^/]*) /s, host slowdown (\S+) from")


def parse_result(stdout: str) -> dict:
    """The JSON result: the last non-empty line of a run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed no result")
    return json.loads(lines[-1])


def parse_rates(stderr: str) -> dict:
    """{"raw_rate": median round rate, "slowdown": host-slowdown factor},
    from the last `raw rates ... host slowdown ...` line of a run's
    standard error."""
    found = RATES_LINE.findall(stderr)
    if not found:
        raise ValueError("the run printed no raw rates")
    rates, factor = found[-1]
    return {"raw_rate": statistics.median(float(r) for r in rates.split()),
            "slowdown": float(factor)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[dict[str, dict]], metrics: list[dict]) -> list[dict]:
    """One row per end-to-end metric over `pairs`, each a
    {"parent": result, "change": result} of parsed run results.

    `metrics` are the `end_to_end` entries of BENCHMARK.json: a name and
    whether "higher" or "lower" is better."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum(1 for a, b in zip(values["parent"], values["change"])
                   if sign * (b - a) > 0)
        p_q1, p_med, p_q3 = quartiles(values["parent"])
        c_q1, c_med, c_q3 = quartiles(values["change"])
        rows.append({
            "metric": name,
            "better": metric["better"],
            "parent": (p_q1, p_med, p_q3),
            "change": (c_q1, c_med, c_q3),
            "relative": c_med / p_med - 1.0 if p_med else float("nan"),
            "wins": wins,
            "pairs": len(pairs),
            "gain": (10 * wins >= 9 * len(pairs)
                     and sign * (c_med - p_med) > p_q3 - p_q1),
        })
    return rows


def failures(pairs: list[dict[str, dict]]) -> dict[str, tuple[int, int]]:
    """Side -> (failed, attempted), summed over the pairs."""
    return {side: (sum(p[side]["failed"] for p in pairs),
                   sum(p[side]["attempted"] for p in pairs)) for side in SIDES}


def summarize_rates(pairs: list[dict[str, dict]]) -> dict:
    """Each side's median raw rate and median slowdown factor over `pairs`,
    and the pairs whose change ran at a higher raw rate."""
    out = {key: {side: statistics.median(p[side][key] for p in pairs) for side in SIDES}
           for key in ("raw_rate", "slowdown")}
    out["raw_wins"] = sum(1 for p in pairs if p["change"]["raw_rate"] > p["parent"]["raw_rate"])
    out["pairs"] = len(pairs)
    return out


def format_summary(rows: list[dict], fails: dict[str, tuple[int, int]],
                   rates: dict) -> str:
    out = ["| Metric | Better | Parent median [q1, q3] | Change median [q1, q3] "
           "| Change vs parent | Wins | Gain |",
           "|---|---|---|---|---:|---:|---|"]
    for r in rows:
        p, c = r["parent"], r["change"]
        out.append(
            f"| `{r['metric']}` | {r['better']} | {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}] "
            f"| {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}] | {r['relative']:+.3f} "
            f"| {r['wins']}/{r['pairs']} | {'yes' if r['gain'] else 'no'} |")
    raw, slow = rates["raw_rate"], rates["slowdown"]
    out.append(f"raw rate: parent {raw['parent']:.4g} /s, change {raw['change']:.4g} /s "
               f"({raw['change'] / raw['parent'] - 1.0:+.3f}), change won "
               f"{rates['raw_wins']}/{rates['pairs']}")
    out.append(f"host slowdown: parent {slow['parent']:.4g}, change {slow['change']:.4g}")
    out.append("failed/attempted: " + ", ".join(
        f"{side} {f}/{a}" for side, (f, a) in fails.items()))
    return "\n".join(out)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from `checkout`'s root; its parsed result,
    with the raw rate and slowdown factor of `parse_rates` added."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=4 * seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return parse_result(proc.stdout) | parse_rates(proc.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent, "change": args.change}
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    correct = True
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            try:
                pair[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                print(f"pair {i} {side}: {exc}", file=sys.stderr)
                return 1
            correct = correct and pair[side]["correct"] is True
        pairs.append(pair)
        print(f"pair {i} seed {seed} ({order[0]} first): " + "; ".join(
            f"{m['name']} {pair['parent']['metrics'][m['name']]['value']:.4g} -> "
            f"{pair['change']['metrics'][m['name']]['value']:.4g}" for m in metrics),
            file=sys.stderr, flush=True)
    print(f"{args.workload}: {args.pairs} pairs, {args.seconds:g} s runs, "
          f"seeds {' '.join(map(str, args.seeds))}")
    print(format_summary(summarize(pairs, metrics), failures(pairs), summarize_rates(pairs)))
    if not correct:
        print("a run reported correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
