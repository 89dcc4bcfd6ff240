"""E-markov — Observation 1's exact chain vs. the simulator.

For small n the pair process (x_t, x_{t+1}) is solved exactly: we build the
transition law implied by Observation 1 and compute expected absorption times
into (1, 1) by linear algebra, then check the Monte-Carlo simulator against
them. This is the strongest end-to-end validation of the engine: any
discrepancy in sampling, update rule, or source pinning would surface here.
"""

from __future__ import annotations

import numpy as np

from bench_common import banner, results_path, run_once
from repro.analysis.markov import ExactPairChain
from repro.core.batch import BatchedEngine, BatchedPopulation
from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.protocols.fet import FETProtocol
from repro.trace import FullTrace
from repro.viz.csv_out import write_rows
from repro.viz.tables import format_table

CASES = [(8, 3), (10, 4), (12, 4)]
TRIALS = 400


def _simulate_mean_absorption(n: int, ell: int, trials: int, seed: int) -> float:
    """Mean rounds until two consecutive all-ones rounds, over ``trials``
    replicas run as one lock-step batch and read off the recorded trace."""
    budget = 5000
    rng = make_rng(seed)
    batch = BatchedPopulation.from_population(make_population(n, 1), trials)
    # All-wrong with counters matching x_{t-1} = 1/n: the (1, 1) chain state.
    states = {"prev_count": rng.binomial(ell, 1 / n, size=(trials, n)).astype(np.int64)}
    recorder = FullTrace()
    engine = BatchedEngine(FETProtocol(ell), batch, rng=rng, states=states)
    engine.run(budget, recorder=recorder)
    x = recorder.trace().x
    absorbed = (x[:, :-1] == 1.0) & (x[:, 1:] == 1.0)
    rounds = np.where(absorbed.any(axis=1), absorbed.argmax(axis=1) + 1, budget)
    return float(rounds.mean())


def test_exact_chain_vs_simulation(benchmark):
    def build():
        rows = []
        for n, ell in CASES:
            chain = ExactPairChain(n=n, ell=ell)
            exact = chain.expected_time_from_all_wrong()
            simulated = _simulate_mean_absorption(n, ell, TRIALS, seed=n * 13 + ell)
            rows.append((n, ell, exact, simulated, simulated / (exact + 1)))
        return rows

    rows = run_once(benchmark, build)
    print(banner("Observation 1 — exact absorption times vs. simulated means"))
    print(format_table(
        ["n", "ell", "exact E[T] from (1,1)", f"simulated mean ({TRIALS} trials)", "sim/(exact+1)"],
        [[n, e, round(x, 3), round(s, 3), round(r, 3)] for n, e, x, s, r in rows],
    ))
    print("(+1: the simulator counts the final pair-transition into (n, n))")
    write_rows(results_path("exact_markov.csv"), ("n", "ell", "exact", "simulated"), rows)

    for n, ell, exact, simulated, ratio in rows:
        assert abs(ratio - 1.0) < 0.12, f"n={n}: simulator disagrees with the exact chain"


def test_absorption_time_heatmap(benchmark):
    """Expected time from every pair state at n = 10 — the exact analogue of
    the per-domain dwell analysis at toy scale."""

    def build():
        chain = ExactPairChain(n=10, ell=4)
        times = chain.expected_absorption_times()
        return chain, times

    chain, times = run_once(benchmark, build)
    print(banner("Exact E[absorption time] over all pair states, n=10, ell=4"))
    header = ["i\\j"] + [str(j) for j in range(1, 11)]
    table = []
    for i in range(1, 11):
        row = [str(i)] + [
            f"{times[chain.state_index(i, j)]:.1f}" for j in range(1, 11)
        ]
        table.append(row)
    print(format_table(header, table))
    write_rows(
        results_path("exact_markov_heatmap.csv"),
        ("i", "j", "expected_time"),
        [
            (i, j, float(times[chain.state_index(i, j)]))
            for i in range(1, 11)
            for j in range(1, 11)
        ],
    )
    # Structure: the absorbing corner is 0; the hardest states sit on the
    # downward-trend side (high i, low j).
    assert times[chain.absorbing_index] == 0.0
    assert times[chain.state_index(10, 1)] > times[chain.state_index(1, 10)]
