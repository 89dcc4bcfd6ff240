"""Shared pieces of the benchmark: run context, outcome, set-up timing and
the end-to-end metric rules every workload applies to its samples."""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import benchstats

#: Workload name -> module that implements it. Each module has ``run(ctx)``;
#: those whose set-up is timed by ``setup_probe.py`` also have ``build_specs(seed)``.
WORKLOAD_MODULES = {
    "agents-lockstep": "wl_agents",
    "counts-grid": "wl_counts",
    "service-mixed": "wl_service",
}

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_RUNS = 5

PROBE = Path(__file__).resolve().parent / "setup_probe.py"


@dataclass
class Context:
    """What one benchmark run was asked to do."""

    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path


@dataclass
class Outcome:
    """What one window of a workload measured.

    ``metrics`` maps metric names to values. ``notes`` are human-readable
    lines printed above the result; ``checks`` are ``(name, ok, detail)``
    correctness checks. ``passes`` counts the repeats of the workload's
    fixed unit of work (its "runs" in the machine header).
    """

    attempted: int = 0
    failed: int = 0
    passes: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def absorb(self, other: "Outcome", label: str) -> None:
        """Fold another window's counts and labelled checks into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)
        self.checks.extend((f"{label}: {name}", ok, detail) for name, ok, detail in other.checks)


def window_done(start: float, seconds: float, samples: int, minimum: int) -> bool:
    """A window ends after ``seconds`` once it holds ``minimum`` samples."""
    return time.perf_counter() - start >= seconds and samples >= minimum


def setup_seconds(ctx: Context, runs: int = SETUP_RUNS) -> float:
    """Median time to import ``repro`` and build the workload's specs, each
    measured in a fresh interpreter so the import is never already cached."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(ctx.root), ctx.workload, str(ctx.seed)],
            cwd=ctx.root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return benchstats.median(samples)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or of its largest waited-for
    child, when larger and ``children`` is set), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


@dataclass
class Slice:
    """The work one slice of a window completed, for the median rates.

    ``job_seconds`` is the slice's time spent on jobs (the denominator of
    the three work rates), ``seconds`` its whole length (for requests).
    """

    job_seconds: float
    jobs: int
    trials: int
    agent_rounds: float
    seconds: float
    requests: int


def end_to_end(
    *,
    setup_s: float,
    pass_walls: list[float],
    rss_mb: float,
    job_latencies: list[float],
    request_latencies: list[float],
    slices: list[Slice],
) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics from one window's samples (see README.md).

    Latencies are in seconds. Every rate is the median over ``slices`` of
    the slice's own rate, so a short burst of machine noise moves it little.
    """
    job_tail, job_pct = benchstats.tail(job_latencies)
    req_tail, req_pct = benchstats.tail(request_latencies)

    def rate(work: str, seconds: str) -> float:
        return benchstats.median([getattr(s, work) / getattr(s, seconds) for s in slices])

    metrics = {
        "setup_s": setup_s,
        "wall_s": benchstats.median(pass_walls),
        "peak_rss_mb": rss_mb,
        "agent_rounds_per_s": rate("agent_rounds", "job_seconds"),
        "trials_per_s": rate("trials", "job_seconds"),
        "cells_per_s": rate("jobs", "job_seconds"),
        "submit_done_p50_ms": 1e3 * benchstats.median(job_latencies),
        "submit_done_tail_ms": 1e3 * job_tail,
        "req_p50_ms": 1e3 * benchstats.median(request_latencies),
        "req_tail_ms": 1e3 * req_tail,
        "req_per_s": rate("requests", "seconds"),
    }
    notes = [
        f"submit_done_tail_ms is p{job_pct:.1f} of {len(job_latencies)} jobs",
        f"req_tail_ms is p{req_pct:.1f} of {len(request_latencies)} requests",
        f"wall_s is the median of {len(pass_walls)} passes; rates are medians of {len(slices)} slices",
    ]
    return metrics, notes
