"""Machine-speed reference for the benchmark.

On a shared virtual machine the same call can run at one speed for a whole
run and up to twice as slow in the next: every timing in the run moves
together.  The benchmark therefore also times a fixed piece of pure-Python
graph code of its own, which no change to factorkit can alter: unit-capacity
augmenting-path max flows on a fixed random graph, once after every
instance.  Its mean time over a run measures the machine's speed during
that run, and the run's timings are reported as seconds on a machine where
the reference takes NOMINAL_S.  The max flow is kept apart from the one in
checks.py, so that a change to the checker cannot move the reference.
"""
from __future__ import annotations

import random
from time import perf_counter

NOMINAL_S = 0.002
VERTICES = 120


def _graph() -> dict[int, dict[int, int]]:
    rng = random.Random(0)
    cap: dict[int, dict[int, int]] = {v: {} for v in range(VERTICES)}

    def add(u: int, v: int) -> None:
        cap[u][v] = cap[u].get(v, 0) + 1
        cap[v][u] = cap[v].get(u, 0) + 1

    for v in range(1, VERTICES):
        add(rng.randrange(v), v)
    for _ in range(3 * VERTICES):
        add(*rng.sample(range(VERTICES), 2))
    return cap


def _max_flow(cap: dict[int, dict[int, int]], s: int, t: int) -> int:
    res = {u: dict(nb) for u, nb in cap.items()}
    flow = 0
    while True:
        prev = {s: s}
        frontier = [s]
        while frontier and t not in prev:
            nxt = []
            for u in frontier:
                for w, c in res[u].items():
                    if c > 0 and w not in prev:
                        prev[w] = u
                        nxt.append(w)
            frontier = nxt
        if t not in prev:
            return flow
        w = t
        while w != s:
            u = prev[w]
            res[u][w] -= 1
            res[w][u] += 1
            w = u
        flow += 1


class Reference:
    """Times the reference once per `sample()`; `factor()` scales a time
    measured over the same stretch to seconds at the nominal speed."""

    def __init__(self) -> None:
        self._cap = _graph()
        self.samples: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        for t in range(1, 5):
            _max_flow(self._cap, 0, t)
        self.samples.append(perf_counter() - start)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def factor(self) -> float:
        return NOMINAL_S / self.mean()
