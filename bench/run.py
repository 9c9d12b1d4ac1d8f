"""Benchmark of `argsynth`: one workload per run, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Set-up (importing `argsynth`, building the library, loading the parameter
file, making the inputs) is done SETUP_PASSES times, each with a fresh
import and followed by a host-speed probe (calibrate.py); `setup_s` is the
median pass time over the median probe time, times the probe's nominal
time. A warm-up follows. The timed region then runs whole rounds of the
workload's operations while the next round is expected to end within S
seconds (at least MIN_ROUNDS). Each round gives a rate: units of work over
the time spent in its operations. Between operations, at most every
PROBE_EVERY_S, the probe runs again. `ops_per_s` is the median round rate
times the median probe time over the probe's nominal time. Both metrics
read as on a host that runs the probe in its nominal time. Outputs are
checked after each round, outside the timed region.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics. With --trace 1 the layers are traced from the last
set-up pass on, exactly MIN_ROUNDS rounds run, the per-layer metrics are
printed instead, and the spans are written to bench/out/. Exits 2 when the
program's sources are missing.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PASSES = 9
MIN_ROUNDS = 2
PROBE_EVERY_S = 0.25  # least seconds between two host-speed probes in the timed region
MIN_PROBES = 9


def fresh_argsynth():
    for name in [m for m in sys.modules if m == "argsynth" or m.startswith("argsynth.")]:
        del sys.modules[name]
    return importlib.import_module("argsynth")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "argsynth" / "__init__.py").is_file():
        print(f"argsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import calibrate
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None

    probe = calibrate.Probe()
    setup_times = []
    setup_probes = []
    for i in range(SETUP_PASSES):
        gc.collect()
        t0 = time.perf_counter()
        A = fresh_argsynth()
        if tracer is not None and i == SETUP_PASSES - 1:
            tracing.install(A, tracer)
        work = WORKLOADS[args.workload](A, args.seed)
        setup_times.append(time.perf_counter() - t0)
        setup_probes.append(probe.run())
    setup_slowdown = statistics.median(setup_probes) / calibrate.NOMINAL_S
    setup_s = statistics.median(setup_times) / setup_slowdown

    ops = work.ops
    if tracer is not None:
        ops = [tracer.op(op) for op in ops]
    work.warmup()

    probes: list[float] = []
    attempted = failed = wrong_outputs = 0
    rates: list[float] = []
    durations: list[float] = []
    t_start = last_probe = time.perf_counter()
    while True:
        work.reset()
        outputs = []
        busy = 0.0
        t_round = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                outputs.append(op())
            except Exception as exc:  # a failed operation is counted, not fatal
                print(f"operation raised {type(exc).__name__}: {exc}", file=sys.stderr)
                outputs.append(None)
            t1 = time.perf_counter()
            busy += t1 - t0
            if t1 - last_probe >= PROBE_EVERY_S:
                probes.append(probe.run())
                last_probe = time.perf_counter()
        durations.append(time.perf_counter() - t_round)
        rates.append(work.units(outputs) / busy)
        ok = work.check(outputs)
        attempted += len(ok)
        failed += ok.count(False)
        wrong_outputs += sum(1 for out, good in zip(outputs, ok) if out is not None and not good)
        if len(rates) < MIN_ROUNDS:
            continue
        # A traced run does MIN_ROUNDS rounds, so its counts repeat exactly.
        next_end = time.perf_counter() - t_start + statistics.median(durations)
        if tracer is not None or next_end > args.seconds:
            break
    while len(probes) < MIN_PROBES:
        probes.append(probe.run())
    problems = work.final_check()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    slowdown = statistics.median(probes) / calibrate.NOMINAL_S
    ops_per_s = statistics.median(rates) * slowdown
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(rates)} rounds, "
          f"raw rates {' '.join(f'{r:.4f}' for r in rates)} /s, "
          f"host slowdown {slowdown:.4f} from {len(probes)} probes, "
          f"ops_per_s {ops_per_s:.4f}; "
          f"setup passes {' '.join(f'{t:.4f}' for t in setup_times)} s, "
          f"host slowdown {setup_slowdown:.4f}, setup_s {setup_s:.4f}", file=sys.stderr)

    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.npz")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {
        "correct": not problems and wrong_outputs == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
