"""E-throughput — per-trial vs batched lock-step throughput.

Not a paper artifact: this benchmark tracks the *simulation machinery* itself,
so the performance trajectory of the engine is measured from the change that
introduced the batched path onward. For FET across population sizes and the
two canonical workloads it times, initialization included, ``trials`` runs
two ways on the one lock-step engine: a per-trial loop of ``run_protocol``
calls (one replica each) and one ``R = trials`` batched ``run_trials`` call.
The workloads:

* ``all-wrong`` — the dissemination start; trials converge in a handful of
  rounds, so per-trial setup and the near-consensus rounds dominate;
* ``bernoulli(0.5)`` — the self-stabilization random start; trials pass
  through mid-range one-fractions, where numpy's per-draw binomial setup is
  most expensive and the batched sufficient-statistic sampler pays off most.

It also times the *near-consensus draw tier* in isolation: the all-wrong
opening rounds (and noise-hover / linger-settle rounds) key the batched
sampler on fractions with ``ℓ·min(x, 1-x)`` far below 1, where the sparse
geometric-gap generator replaces per-element draws. That section compares
the sparse tier against the scalar-p inversion path that served those rows
before it existed.

Emits ``results/BENCH_engine.json`` with seconds, rounds/sec, trials/sec and
the batched-over-per-trial speedup per (n, workload) cell, plus the sparse
draw-tier comparison. The headline cell (n=1000, trials=500, random start)
is expected to hold a ≥5× speedup. Every batched cell must beat the
per-trial loop, by ≥2× end to end at n ≤ 1000; the sparse tier must hold ≥2×
on near-consensus draws.

Run directly (``PYTHONPATH=src python benchmarks/bench_engine_throughput.py``)
or through pytest-benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import numpy as np

from bench_common import banner, results_path, run_once
from repro.core.batch import run_protocol
from repro.core.population import make_population
from repro.core.rng import make_rng, spawn_rngs
from repro.core.sampling import batched_binomial_counts
from repro.experiments.harness import TrialStats, run_trials
from repro.initializers.standard import AllWrong, BernoulliRandom, Initializer
from repro.protocols.fet import FETProtocol, ell_for
from repro.viz.tables import format_table

#: (n, trials) cells; trials shrink with n to keep the benchmark brisk while
#: the acceptance cell n=1000 keeps its full 500 trials.
CELLS = [(100, 500), (1000, 500), (10000, 100)]
MAX_ROUNDS = 2000
SEED = 20260729
#: timing repetitions per cell; min-of-k filters scheduler noise and warm-up
REPEATS = 3


def _executed_rounds(stats: TrialStats) -> int:
    """Total synchronous replica-rounds a run actually simulated.

    A converged trial steps until its stability window closes:
    ``max(rounds + stability - 1, stability - 1)`` rounds with the default
    window of 2; a failed trial runs the full budget. Identical accounting on
    both paths, so rounds/sec is comparable.
    """
    executed = 0.0
    executed += float((stats.times + 1.0).sum())  # stability_rounds=2
    executed += (stats.trials - stats.successes) * stats.max_rounds
    return int(executed)


def _per_trial(n: int, trials: int, initializer: Initializer) -> TrialStats:
    """``trials`` one-replica ``run_protocol`` calls, each initialized and
    stepped on its own spawned stream."""
    ell = ell_for(n)
    times = []
    for rng in spawn_rngs(SEED, trials):
        protocol = FETProtocol(ell)
        population = make_population(n, 1)
        state = protocol.init_state(n, rng)
        initializer(population, protocol, state, rng)
        result = run_protocol(protocol, population, MAX_ROUNDS, rng=rng, state=state)
        if result.converged:
            times.append(result.rounds)
    return TrialStats(
        protocol_name=protocol.name,
        initializer_name=initializer.name,
        n=n,
        trials=trials,
        max_rounds=MAX_ROUNDS,
        successes=len(times),
        times=np.asarray(times, dtype=float),
    )


def run_cell(n: int, trials: int, initializer: Initializer) -> list[dict]:
    ell = ell_for(n)
    rows = []
    timings = {}
    for engine in ("per-trial", "batched"):
        seconds = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            if engine == "per-trial":
                stats = _per_trial(n, trials, initializer)
            else:
                stats = run_trials(
                    lambda: FETProtocol(ell),
                    n,
                    initializer,
                    trials=trials,
                    max_rounds=MAX_ROUNDS,
                    seed=SEED,
                    engine=engine,
                )
            seconds = min(seconds, time.perf_counter() - start)
        timings[engine] = seconds
        rounds = _executed_rounds(stats)
        rows.append(
            {
                "engine": engine,
                "init": initializer.name,
                "n": n,
                "ell": ell,
                "trials": trials,
                "successes": stats.successes,
                "mean_rounds": float(stats.times.mean()) if stats.times.size else None,
                "seconds": round(seconds, 4),
                "rounds_per_sec": round(rounds / seconds, 1),
                "trials_per_sec": round(trials / seconds, 1),
            }
        )
    speedup = timings["per-trial"] / timings["batched"]
    for row in rows:
        row["speedup"] = round(speedup, 2) if row["engine"] == "batched" else 1.0
    return rows


def run_sparse_tier_cell(n: int, replicas: int, blocks: int = 2) -> dict:
    """Near-consensus draw throughput: sparse tier vs scalar-p inversion.

    The workload is the all-wrong opening fraction ``x = 1/n`` replicated
    across the batch — exactly the rows the tiered sampler used to serve
    with numpy's scalar-p generator (the grouped-inversion path) and now
    serves with geometric-gap placement.
    """
    ell = ell_for(n)
    x = np.full(replicas, 1.0 / n)
    rng = make_rng(SEED)
    timings = {}
    for method in ("inversion", "sparse"):
        seconds = float("inf")
        for _ in range(max(REPEATS, 5)):
            start = time.perf_counter()
            if method == "sparse":
                batched_binomial_counts(rng, ell, x, blocks, n, method="sparse")
            else:
                rng.binomial(ell, x[0], size=(blocks, replicas, n))
            seconds = min(seconds, time.perf_counter() - start)
        timings[method] = seconds
    return {
        "n": n,
        "ell": ell,
        "replicas": replicas,
        "blocks": blocks,
        "x": x[0],
        "tail": round(ell * x[0], 4),
        "inversion_sec": round(timings["inversion"], 5),
        "sparse_sec": round(timings["sparse"], 5),
        "speedup": round(timings["inversion"] / timings["sparse"], 2),
    }


def run_benchmark() -> dict:
    all_rows = []
    for n, trials in CELLS:
        for initializer in (AllWrong(), BernoulliRandom(0.5)):
            all_rows.extend(run_cell(n, trials, initializer))
    sparse_rows = [
        run_sparse_tier_cell(1000, 500),
        run_sparse_tier_cell(10000, 100),
    ]
    machine = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    return {"machine": machine, "cells": all_rows, "sparse_tier": sparse_rows}


def report(payload: dict) -> None:
    all_rows = payload["cells"]
    print(banner("Engine throughput — per-trial vs batched (FET)"))
    table = [
        [
            row["n"],
            row["init"],
            row["engine"],
            row["trials"],
            f"{row['successes']}/{row['trials']}",
            row["seconds"],
            row["rounds_per_sec"],
            row["trials_per_sec"],
            row["speedup"],
        ]
        for row in all_rows
    ]
    print(
        format_table(
            ["n", "init", "engine", "trials", "success", "sec", "rounds/s", "trials/s", "speedup"],
            table,
        )
    )
    headline = [
        row
        for row in all_rows
        if row["n"] == 1000 and row["engine"] == "batched" and row["init"].startswith("bernoulli")
    ]
    if headline:
        print(f"\nheadline (n=1000, trials=500, random start): {headline[0]['speedup']}x batched speedup")
    print(banner("Sparse extreme-x draw tier — near-consensus draws (x = 1/n)"))
    print(
        format_table(
            ["n", "ell", "replicas", "tail", "inversion sec", "sparse sec", "speedup"],
            [
                [row["n"], row["ell"], row["replicas"], row["tail"],
                 row["inversion_sec"], row["sparse_sec"], row["speedup"]]
                for row in payload["sparse_tier"]
            ],
        )
    )
    path = results_path("BENCH_engine.json")
    path.write_text(json.dumps(payload, indent=2))
    print(f"wrote {path}")


def test_engine_throughput(benchmark):
    payload = run_once(benchmark, run_benchmark)
    report(payload)
    all_rows = payload["cells"]
    headline = [
        row
        for row in all_rows
        if row["n"] == 1000 and row["engine"] == "batched" and row["init"].startswith("bernoulli")
    ]
    # Loose floor: the acceptance target is 5x; assert well below it so the
    # benchmark stays green on slower/noisier machines while still catching a
    # regression that erases the batched advantage.
    assert headline and headline[0]["speedup"] >= 2.0
    # Both columns run the same lock-step engine and sampler, so the speedup
    # is what batching itself amortizes: per-trial setup and per-round Python
    # overhead. That dominates at n <= 1000 (measured 3-31x), so those cells
    # must hold >= 2x. At n = 1e4 a replica-round is mostly numpy work that
    # batching cannot share (measured 1.3-1.85x), so there the batched cell
    # must only never lose to the per-trial loop.
    for row in all_rows:
        if row["engine"] == "batched":
            assert row["speedup"] >= (2.0 if row["n"] <= 1000 else 1.0), row
    # The tier itself must beat the scalar-p inversion path it replaced by
    # >= 2x on near-consensus draws (measured ~3x; floor leaves CI headroom).
    for row in payload["sparse_tier"]:
        assert row["speedup"] >= 2.0, row


if __name__ == "__main__":
    report(run_benchmark())
    sys.exit(0)
