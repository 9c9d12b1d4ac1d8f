"""Host-speed probe: a fixed slice of work that never touches `argsynth`.

The host this benchmark was built on changes speed by up to 1.5x for tens
of seconds at a time (the same training iteration ran at 0.45 and at 0.77
per second in runs minutes apart), and a run cannot average that away. The
probe mixes what the program spends its time on: small matrix-vector
products, numpy calls on arrays of about 20 entries (as in PUCT selection)
and tuple/dict work in the interpreter. Timed between operations, it
measures the speed the host gave the run at that moment. Over 3-second
windows of search episodes, episode throughput and the probe's speed
correlated at 0.85, and dividing one by the other halved their variation
(coefficient of variation 0.158 -> 0.085).
"""
from __future__ import annotations

import gc
import time

import numpy as np

# Median probe time measured on the reference host; scaled rates read as
# rates on a host that runs the probe in this time.
NOMINAL_S = 0.0055
_REPEATS = 160


class Probe:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self.w = rng.standard_normal((96, 512))
        self.x = rng.standard_normal(96)
        prior = rng.random(20)
        self.prior = prior / prior.sum()
        self.visits = rng.integers(0, 5, 20).astype(np.float64)
        self.values = rng.random(20)

    def run(self) -> float:
        """Seconds taken by one slice of fixed work.

        The collector is off during the slice: a collection set off by the
        slice's own allocations would scan the program's heap and time the
        program's state rather than the host's speed.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._slice()
        finally:
            if was_enabled:
                gc.enable()

    def _slice(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        n, w = self.visits, self.values
        for i in range(_REPEATS):
            acc += float((self.x @ self.w)[i % 512])
            q = np.where(n > 0, w / np.maximum(n, 1.0), 0.5)
            acc += int(np.argmax(q + self.prior * np.sqrt(n.sum() + 1.0) / (1.0 + n)))
            table = {(j, i): j for j in range(30)}
            acc += sum(v for (a, _), v in table.items() if a % 3 == 0)
        self.sink = acc
        return time.perf_counter() - t0
