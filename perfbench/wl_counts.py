"""counts-grid: ``run_sweep(jobs=2)`` over a counts-engine FET grid.

One pass is a cold sweep into a fresh, fsync'd store followed by
``WARM_PASSES`` sweeps of the same spec against that store reopened from
disk, in which every cell is cached. Each cell takes milliseconds, so the
counts round loop, config/key hashing, dispatch and store appends carry the
time; the per-agent sampler is never called. Cells that run their full
round budget (noisy FET with ``stability_rounds >= 3``, sample-majority,
hysteresis-FET at n >= 1e7) are left out on purpose: they would time budget
exhaustion, not the layers above.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.sweep import SweepSpec, run_sweep
from repro.sweep.store import ResultsStore
from repro.telemetry.registry import MetricsRegistry

import benchstats
from common import Context, Outcome, Slice, end_to_end, peak_rss_mb, setup_seconds, window_done
from layers import LayerClock, TimedStore

JOBS = 2
TRIALS = 64
WARM_PASSES = 8

#: Passes a window must run: the warm sweeps are the request samples.
MIN_PASSES = 6

AXES = {
    "protocol": ["fet"],
    "n": [10**k for k in range(3, 10)],
    "initializer": [
        "all-wrong",
        {"name": "bernoulli", "p": 0.5},
        {"name": "fraction", "x": 0.25},
    ],
    "stability_rounds": [1, 2, 3],
}


def build_specs(seed: int, pass_index: int = 0) -> SweepSpec:
    """The grid of one pass; every pass of a run gets its own seed."""
    return SweepSpec(
        name="perfbench-counts-grid",
        seed=seed * 1_009 + pass_index,
        trials=TRIALS,
        engine="counts",
        axes=AXES,
    )


def _csv(result, path: Path) -> bytes:
    result.write_csv(path)
    return path.read_bytes()


def _digest(result, cold_wall: float) -> dict:
    """What the metrics and checks need from one cold sweep, so the window
    does not keep every sweep's results alive."""
    done = [
        (cell, cell_result)
        for cell, cell_result in zip(result.cells, result.results)
        if not cell_result.failed
    ]
    return {
        "cells": len(result.cells),
        "failed": result.failed,
        "latencies": [cell_result.elapsed_s for _, cell_result in done],
        "slice": Slice(
            job_seconds=cold_wall,
            jobs=len(done),
            trials=sum(cell.trials for cell, _ in done),
            agent_rounds=sum(
                cell.n * sum(cell_result.payload["times"]) for cell, cell_result in done
            ),
            seconds=0.0,  # the whole pass, filled in when its cached sweeps end
            requests=WARM_PASSES,
        ),
        "unconverged": [
            f"{cell.label()} stab={cell.stability_rounds}"
            for cell, cell_result in zip(result.cells, result.results)
            if cell_result.failed or cell_result.payload["successes"] != cell.trials
        ],
    }


def _window(ctx: Context, clock: LayerClock | None, registry: MetricsRegistry | None) -> dict:
    passes: list[dict] = []
    warm_walls: list[float] = []
    mismatched: list[int] = []
    bytes_written = 0
    expand_s = key_s = 0.0
    start = time.perf_counter()
    while not window_done(start, ctx.seconds, len(passes), MIN_PASSES):
        pass_index = len(passes)
        spec = build_specs(ctx.seed, pass_index)
        path = ctx.workdir / f"store-{int(clock is not None)}-{pass_index}.jsonl"
        if clock is not None:
            t = time.perf_counter()
            cells = spec.expand()
            expand_s += time.perf_counter() - t
            t = time.perf_counter()
            for cell in cells:
                cell.key()
            key_s += time.perf_counter() - t
        pass_start = time.perf_counter()
        store = (
            TimedStore(path, clock=clock, durable=True)
            if clock is not None
            else ResultsStore(path, durable=True)
        )
        cold = run_sweep(spec, jobs=JOBS, store=store)
        record = _digest(cold, time.perf_counter() - pass_start)
        cold_csv = _csv(cold, ctx.workdir / "cold.csv")
        del cold
        bytes_written += path.stat().st_size
        for warm_index in range(WARM_PASSES):
            t = time.perf_counter()
            store = TimedStore(path, clock=clock) if clock is not None else ResultsStore(path)
            warm = run_sweep(spec, jobs=JOBS, store=store)
            warm_walls.append(time.perf_counter() - t)
            if warm.cached != len(warm.cells) or _csv(warm, ctx.workdir / "warm.csv") != cold_csv:
                mismatched.append(pass_index * WARM_PASSES + warm_index)
        record["slice"].seconds = time.perf_counter() - pass_start
        if registry is not None:
            # Metered cells carry their metric snapshots into the records they
            # store, so the engine histograms come from a storeless sweep kept
            # out of the pass's timings.
            run_sweep(spec, jobs=JOBS, metrics=registry)
        passes.append(record)
    return {
        "passes": passes,
        "warm_walls": warm_walls,
        "mismatched": mismatched,
        "bytes_written": bytes_written,
        "expand_s": expand_s,
        "key_s": key_s,
    }


def _outcome(samples: dict) -> Outcome:
    passes = samples["passes"]
    cells = sum(record["cells"] for record in passes)
    failed = sum(record["failed"] for record in passes)
    out = Outcome(
        attempted=cells * (1 + WARM_PASSES),
        failed=failed * (1 + WARM_PASSES),
        passes=len(passes),
    )
    out.check(
        "every cached pass is fully cached and writes the cold pass's CSV bytes",
        not samples["mismatched"],
        f"mismatched warm passes {samples['mismatched'][:5]}" if samples["mismatched"] else "",
    )
    unconverged = [label for record in passes for label in record["unconverged"]]
    out.check("every counts cell converges in all trials", not unconverged, "; ".join(unconverged[:5]))
    return out


def run(ctx: Context) -> Outcome:
    setup_s = setup_seconds(ctx)
    samples = _window(ctx, None, None)
    out = _outcome(samples)
    if ctx.trace:
        return _traced(ctx, samples, out)
    passes = samples["passes"]
    cold_walls = [record["slice"].job_seconds for record in passes]
    metrics, notes = end_to_end(
        setup_s=setup_s,
        pass_walls=cold_walls,
        rss_mb=peak_rss_mb(children=True),
        job_latencies=[t for record in passes for t in record["latencies"]],
        request_latencies=samples["warm_walls"],
        slices=[record["slice"] for record in passes],
    )
    out.metrics.update(metrics)
    out.notes.extend(notes)
    out.notes.append(
        f"cold pass: {passes[0]['cells']} cells in {benchstats.median(cold_walls):.3f} s "
        f"(median); cached pass {1e3 * benchstats.median(samples['warm_walls']):.1f} ms (median)"
    )
    return out


def _traced(ctx: Context, plain: dict, out: Outcome) -> Outcome:
    """Repeat the window with a timed store, plus one metered storeless sweep
    per pass for the counts-engine histograms."""
    clock = LayerClock()
    registry = MetricsRegistry()
    samples = _window(ctx, clock, registry)
    out.absorb(_outcome(samples), "traced window")
    passes = len(samples["passes"])
    cell_s = sum(sum(record["latencies"]) for record in samples["passes"])
    cold_s = sum(record["slice"].job_seconds for record in samples["passes"])
    wall_s = sum(record["slice"].seconds for record in samples["passes"])
    store_s = clock.seconds["store.put"] + clock.seconds["store.get"] + clock.seconds["store.load"]
    covered = cell_s / JOBS + store_s
    m = out.metrics
    m["core.counts.run_s"] = registry.histogram("repro_engine_run_seconds", engine="counts").sum / passes
    m["protocols.step_counts_s"] = registry.histogram("repro_counts_draw_seconds").sum / passes
    m["sweep.runner.cell_s"] = cell_s / passes
    m["config.expand_s"] = samples["expand_s"] / passes
    m["config.key_s"] = samples["key_s"] / passes
    m["sweep.store.put_s"] = clock.seconds["store.put"] / passes
    m["sweep.store.put_calls"] = clock.calls["store.put"] / passes
    m["sweep.store.bytes_written"] = plain["bytes_written"] / len(plain["passes"])
    m["sweep.store.load_s"] = clock.seconds["store.load"] / passes
    m["sweep.store.get_s"] = clock.seconds["store.get"] / passes
    m["sweep.dispatch.efficiency"] = cell_s / (JOBS * cold_s)
    m["sweep.orchestrator.residual_s"] = (cold_s - cell_s / JOBS) / passes
    m["trace.residual_s"] = (wall_s - covered) / passes
    m["trace.coverage_ratio"] = covered / wall_s
    m["telemetry.trace_overhead_ratio"] = benchstats.median(
        [record["slice"].seconds for record in samples["passes"]]
    ) / benchstats.median([record["slice"].seconds for record in plain["passes"]])
    out.notes.append(
        f"cell work / {JOBS} jobs plus store time cover {100 * covered / wall_s:.1f}% of pass wall time"
    )
    return out
