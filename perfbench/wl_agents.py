"""agents-lockstep: serial ``RunSpec.execute`` calls on the per-agent engine.

Every call pins ``engine="batched"``, so the store, dispatch and service are
bypassed and the draw tiers of the batched sampler carry most of the time.
One pass runs the four cells below in order; a window repeats passes with
fresh seeds until ``--seconds`` have elapsed and at least ``MIN_CALLS``
calls were timed. Trial counts are chosen so each call takes a few tenths
of a second, which gives the latency metrics enough samples for a tail.
"""

from __future__ import annotations

import dataclasses
import math
import time
import traceback

import numpy as np

from repro.config import RunSpec
from repro.telemetry.registry import MetricsRegistry, use_registry

import benchstats
from common import Context, Outcome, Slice, end_to_end, peak_rss_mb, setup_seconds, window_done
from layers import LayerClock, timed

FET = {"name": "fet"}
RANDOM = {"name": "bernoulli", "p": 0.5}

#: Observation noise of the noisy cell: ε·ℓ = 0.37 at n = 1e4 (ℓ = 74), in the
#: near-consensus hover band the sparse draw tier serves.
NOISE = 0.005

#: (label, n, initializer, trials, noise, linger_rounds) per cell of a pass.
CELLS = (
    ("random-1e4", 10_000, RANDOM, 50, 0.0, 0),
    ("all-wrong-1e4", 10_000, {"name": "all-wrong"}, 150, 0.0, 0),
    ("random-1e3-many", 1_000, RANDOM, 500, 0.0, 0),
    ("noisy-1e4", 10_000, RANDOM, 12, NOISE, 20),
)

#: The many-replica cell whose mean rounds are cross-checked on the counts
#: engine, and the tolerance of that check in combined standard errors.
CROSS_CHECK_CELL = 2
CROSS_CHECK_SIGMAS = 5.0

#: Calls a window must time: twelve passes, so the tail is p79 or higher.
MIN_CALLS = 12 * len(CELLS)

TIER_COUNTER = "repro_sampler_tier_rows_total"
TIERS = ("consensus", "sparse", "grouped", "histogram")


def build_specs(seed: int, pass_index: int = 0) -> list[RunSpec]:
    """The cells of one pass; every pass of a run gets its own seeds."""
    base = seed * 100_003 + pass_index * len(CELLS)
    return [
        RunSpec(
            protocol=FET,
            n=n,
            initializer=initializer,
            trials=trials,
            noise=noise,
            linger_rounds=linger,
            engine="batched",
            seed=base + index,
        )
        for index, (_, n, initializer, trials, noise, linger) in enumerate(CELLS)
    ]


def _count_bytes(clock: LayerClock, args: tuple, result) -> None:
    clock.counts["sampler.bytes_out"] += result.nbytes


def _count_replicas(clock: LayerClock, args: tuple, result) -> None:
    clock.counts["batch.replica_rounds"] += args[0].replicas


def _instrumented(spec: RunSpec, clock: LayerClock) -> dict:
    """``execute`` overrides that time the sampler, protocol and initializer."""
    factory = spec.protocol_factory()
    initializer = spec.build_initializer()
    sampler = spec.samplers()[1]
    return {
        "protocol_factory": lambda: timed(
            factory(), "step_batch", "protocol.step_batch", clock, _count_replicas
        ),
        "initializer": timed(initializer, "apply_batch", "initializer.apply_batch", clock),
        "batched_sampler": timed(
            sampler, "count_blocks", "sampler.count_blocks", clock, _count_bytes
        ),
    }


def _window(ctx: Context, clock: LayerClock | None) -> dict:
    """Run passes until the window closes; returns the raw samples."""
    calls: list[tuple[int, int, float, object]] = []
    pass_walls: list[float] = []
    failures: list[str] = []
    start = time.perf_counter()
    pass_index = 0
    while not window_done(start, ctx.seconds, len(calls), MIN_CALLS):
        specs = build_specs(ctx.seed, pass_index)
        pass_start = time.perf_counter()
        for index, spec in enumerate(specs):
            overrides = _instrumented(spec, clock) if clock is not None else {}
            call_start = time.perf_counter()
            try:
                stats = spec.execute(**overrides)
            except Exception:  # a failed call is counted, and the loop goes on
                failures.append(traceback.format_exc(limit=3))
                continue
            calls.append((pass_index, index, time.perf_counter() - call_start, stats))
        pass_walls.append(time.perf_counter() - pass_start)
        pass_index += 1
    return {
        "calls": calls,
        "pass_walls": pass_walls,
        "failures": failures,
        "window_s": time.perf_counter() - start,
        "passes": pass_index,
    }


def _checks(ctx: Context, samples: dict, out: Outcome) -> None:
    unconverged = [
        f"{CELLS[index][0]}: {stats.successes}/{stats.trials}"
        for _, index, _, stats in samples["calls"]
        if stats.successes != stats.trials
    ]
    out.check("every FET trial converges", not unconverged, "; ".join(unconverged[:5]))
    batched = next(
        stats for _, index, _, stats in samples["calls"] if index == CROSS_CHECK_CELL
    )
    spec = build_specs(ctx.seed, 0)[CROSS_CHECK_CELL]
    counts = dataclasses.replace(spec, engine="counts").execute()
    b, c = np.asarray(batched.times, float), np.asarray(counts.times, float)
    se = math.sqrt(b.var(ddof=1) / b.size + c.var(ddof=1) / c.size)
    gap = abs(b.mean() - c.mean())
    out.check(
        f"n=1e3 mean rounds agree with the counts engine within {CROSS_CHECK_SIGMAS:g} SE",
        counts.successes == counts.trials and gap <= CROSS_CHECK_SIGMAS * se,
        f"batched {b.mean():.3f}, counts {c.mean():.3f}, |gap| {gap:.3f}, SE {se:.3f}",
    )


def _outcome(samples: dict) -> Outcome:
    out = Outcome(
        attempted=len(samples["calls"]) + len(samples["failures"]),
        failed=len(samples["failures"]),
        passes=samples["passes"],
    )
    out.notes.extend(f"failed call: {text}" for text in samples["failures"][:3])
    return out


def _slices(samples: dict) -> list[Slice]:
    """One slice per pass; a direct call is both a job and a request."""
    slices = []
    for index, wall in enumerate(samples["pass_walls"]):
        stats = [s for p, _, _, s in samples["calls"] if p == index]
        slices.append(
            Slice(
                job_seconds=wall,
                jobs=len(stats),
                trials=sum(s.trials for s in stats),
                agent_rounds=sum(s.n * float(np.sum(s.times)) for s in stats),
                seconds=wall,
                requests=len(stats),
            )
        )
    return slices


def run(ctx: Context) -> Outcome:
    setup_s = setup_seconds(ctx)
    samples = _window(ctx, None)
    out = _outcome(samples)
    _checks(ctx, samples, out)
    if not ctx.trace:
        calls = samples["calls"]
        latencies = [wall for _, _, wall, _ in calls]
        metrics, notes = end_to_end(
            setup_s=setup_s,
            pass_walls=samples["pass_walls"],
            rss_mb=peak_rss_mb(),
            job_latencies=latencies,
            request_latencies=latencies,
            slices=_slices(samples),
        )
        out.metrics.update(metrics)
        out.notes.extend(notes)
        for index, (label, *_rest) in enumerate(CELLS):
            per_trial = [
                1e3 * wall / stats.trials for _, i, wall, stats in calls if i == index
            ]
            out.notes.append(
                f"{label}: median {benchstats.median(per_trial):.3f} ms/trial "
                f"over {len(per_trial)} calls"
            )
        return out
    return _traced(ctx, samples, out)


def _traced(ctx: Context, plain: dict, out: Outcome) -> Outcome:
    """Repeat the window with the layer wrappers and metrics registry on."""
    clock = LayerClock()
    registry = MetricsRegistry()
    with use_registry(registry):
        samples = _window(ctx, clock)
    traced_out = _outcome(samples)
    _checks(ctx, samples, traced_out)
    out.absorb(traced_out, "traced window")
    passes = samples["passes"]
    calls_s = sum(wall for _, _, wall, _ in samples["calls"])
    engine_s = registry.histogram("repro_engine_run_seconds", engine="batched").sum
    draw_s = clock.seconds["sampler.count_blocks"]
    step_s = clock.seconds["protocol.step_batch"]
    init_s = clock.seconds["initializer.apply_batch"]
    covered = engine_s + init_s
    m = out.metrics
    m["core.sampling.count_blocks_s"] = draw_s / passes
    m["core.sampling.count_blocks_calls"] = clock.calls["sampler.count_blocks"] / passes
    for tier in TIERS:
        m[f"core.sampling.rows.{tier}"] = registry.value(TIER_COUNTER, tier=tier) / passes
    m["core.sampling.bytes_out_computed"] = clock.counts["sampler.bytes_out"] / passes
    m["protocols.step_batch_self_s"] = (step_s - draw_s) / passes
    m["initializers.apply_batch_s"] = init_s / passes
    m["core.batch.run_self_s"] = (engine_s - step_s) / passes
    m["core.batch.replica_rounds"] = clock.counts["batch.replica_rounds"] / passes
    m["trace.residual_s"] = (calls_s - covered) / passes
    m["trace.coverage_ratio"] = covered / calls_s
    m["telemetry.trace_overhead_ratio"] = benchstats.median(
        samples["pass_walls"]
    ) / benchstats.median(plain["pass_walls"])
    out.passes = passes
    met = "met" if covered / calls_s >= 0.95 else "NOT met"
    out.notes.append(
        f"spans cover {100 * covered / calls_s:.1f}% of execute wall time: "
        f"ROADMAP item 1's >=95% target is {met}"
    )
    return out
