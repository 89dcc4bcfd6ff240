"""Multi-trial experiment harness.

Runs many independent trials of a protocol from a chosen initializer and
aggregates convergence statistics. This is the workhorse behind every
benchmark table — and the **only** layer that assembles engines and pairs
scalar/batched observation models. Everything above it speaks
:class:`~repro.config.RunSpec`:

* :func:`execute_run` — the execution core behind
  :meth:`RunSpec.execute`: resolves the spec's declarative components
  (with optional live-object overrides), picks the engine, and runs the
  batch of trials;
* :func:`make_batched_engine` / :func:`make_count_engine` — the cores
  behind :meth:`RunSpec.batched_engine` / :meth:`RunSpec.count_engine`:
  fully prepared lock-step engines, which :func:`execute_run` runs and
  trace/θ consumers drive directly;
* :func:`run_trials` — the legacy factory-kwargs signature, kept working
  as a thin adapter over :meth:`RunSpec.execute`.

Execution engines (``engine`` policy):

* ``"auto"`` (default) and ``"batched"`` — all trials as one ``(R, n)``
  system on the :class:`~repro.core.batch.BatchedEngine`: the declared
  population layout is tiled into ``R`` rows and every start is drawn in one
  ``init_state_batch`` + ``apply_batch`` call (:func:`prepare_batch`), then
  all replicas advance in lock-step and retire individually on convergence.
  Protocols without a vectorized ``step_batch`` (and initializers without a
  vectorized ``apply_batch``) ride the generic per-replica fallback. Per-trial
  trajectory consumers (``keep_results=True``) are served by attaching a
  :class:`~repro.trace.FullTrace` recorder and converting the recorded
  ``(R, T)`` matrix back into per-trial :class:`RunResult` objects.
* ``"counts"`` — explicit opt-in to the sufficient-statistic
  :class:`~repro.core.counts.CountEngine`: replicas are ``(S,)`` state-count
  vectors, one multinomial-family transition per round, O(num_states) memory
  regardless of ``n``. Exact in distribution for exchangeable populations
  but a *different* RNG consumption pattern, so per-trial streams do not
  match the batched engine bitwise (aggregates are KS-equivalent). Requires
  a count-model protocol (``Protocol.counts_supported``), a count-capable
  initializer (``Initializer.supports_counts``), and a fraction-keyed
  observation model; ``"auto"`` never selects it.

Both engines run the one lock-step round loop, ``_run_lockstep`` in
:mod:`repro.core.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import RunSpec
from ..core.batch import BatchedEngine, BatchedPopulation
from ..core.counts import CountEngine, CountPopulation, make_count_population
from ..core.population import PopulationState
from ..core.protocol import Protocol, ProtocolState
from ..core.records import RunResult
from ..core.rng import spawn_rngs
from ..core.sampling import BatchedSampler
from ..initializers.standard import Initializer
from ..stats.summary import TimesSummary, describe_times, wilson_interval
from ..trace import FullTrace

__all__ = [
    "TrialStats",
    "execute_run",
    "make_batched_engine",
    "make_count_engine",
    "prepare_batch",
    "prepare_counts",
    "run_trials",
]


@dataclass
class TrialStats:
    """Aggregated outcome of a batch of trials."""

    protocol_name: str
    initializer_name: str
    n: int
    trials: int
    max_rounds: int
    successes: int
    times: np.ndarray  # convergence rounds of the successful trials
    results: list[RunResult] = field(default_factory=list, repr=False)
    engine: str = "batched"  # which execution engine produced the stats

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else float("nan")

    @property
    def success_interval(self) -> tuple[float, float]:
        if self.trials == 0:
            return (float("nan"), float("nan"))
        return wilson_interval(self.successes, self.trials)

    def time_summary(self) -> TimesSummary:
        return describe_times(self.times)

    def row(self) -> dict:
        """Flat dict for table rendering."""
        summary = self.time_summary()
        lo, hi = self.success_interval
        return {
            "protocol": self.protocol_name,
            "init": self.initializer_name,
            "n": self.n,
            "trials": self.trials,
            "success": f"{self.successes}/{self.trials}",
            "rate_ci": f"[{lo:.2f},{hi:.2f}]",
            "median": summary.median,
            "mean": summary.mean,
            "p95": summary.p95,
            "max": summary.maximum,
        }


def run_trials(
    protocol_factory: Callable[[], Protocol],
    n: int,
    initializer: Initializer,
    *,
    trials: int,
    max_rounds: int,
    seed: int,
    correct_opinion: int = 1,
    stability_rounds: int = 2,
    keep_results: bool = False,
    engine: str = "auto",
    batched_sampler: BatchedSampler | None = None,
) -> TrialStats:
    """Run ``trials`` independent runs and aggregate their outcomes.

    Legacy factory-kwargs front door, kept stable: it adapts its arguments
    onto a :class:`~repro.config.RunSpec` and calls
    :meth:`~repro.config.RunSpec.execute` with the factories as live-object
    overrides. New code should construct the ``RunSpec`` directly — the
    declarative components cover the common cases (including paired noisy
    observation models via ``noise``/``sampler``) without any factory
    plumbing.

    The trials are the rows of one lock-step batch: the standard layout is
    tiled ``trials`` times, ``initializer`` draws every start from one
    stream, and each row runs to convergence or ``max_rounds``. ``trials=0`` is
    allowed and yields an empty aggregate (no successes, empty ``times``,
    NaN summaries) without touching either engine. ``batched_sampler``
    overrides the observation model (e.g.
    :class:`~repro.core.noise.BatchedNoisyCountSampler`); declaratively-built
    specs never need it, the sampler registry resolves them.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    spec = RunSpec(
        protocol=None,
        n=n,
        trials=trials,
        max_rounds=max_rounds,
        seed=seed,
        correct_opinion=correct_opinion,
        stability_rounds=stability_rounds,
        engine=engine,
    )
    return spec.execute(
        keep_results=keep_results,
        protocol_factory=protocol_factory,
        initializer=initializer,
        batched_sampler=batched_sampler,
    )


def execute_run(
    spec: RunSpec,
    *,
    keep_results: bool = False,
    protocol_factory: Callable[[], Protocol] | None = None,
    initializer: Initializer | None = None,
    batched_sampler: BatchedSampler | None = None,
) -> TrialStats:
    """Execution core of :meth:`RunSpec.execute` (see the module docstring).

    Keyword overrides replace the spec's declarative components with live
    objects — the adapter path of :func:`run_trials` and the escape hatch
    for components with no declarative form.
    """
    counts = spec.engine == "counts"
    if counts and spec.population is not None:
        raise ValueError(
            f"population {spec.population['name']!r} is a crafted "
            "per-agent layout; the counts engine only models the "
            "standard source-pinned population"
        )
    if protocol_factory is None:
        protocol_factory = spec.protocol_factory()
    if initializer is None:
        initializer = spec.build_initializer()
    max_rounds = spec.resolved_max_rounds()
    protocol = protocol_factory()
    if spec.trials == 0:
        # Degrade gracefully: an empty aggregate with no division warnings
        # (success_rate and the time summary report NaN, times stays empty)
        # rather than an error — sweep grids may legitimately zip in empty
        # cells, and downstream table code handles the NaNs already.
        return TrialStats(
            protocol_name=protocol.name,
            initializer_name=initializer.name,
            n=spec.n,
            trials=0,
            max_rounds=max_rounds,
            successes=0,
            times=np.empty(0, dtype=float),
            engine="counts" if counts else "batched",
        )
    if counts:
        engine = make_count_engine(
            spec, protocol=protocol, initializer=initializer, sampler=batched_sampler
        )
    else:
        engine = make_batched_engine(
            spec, protocol=protocol, initializer=initializer, batched_sampler=batched_sampler
        )
    return _run_lockstep_trials(
        engine, spec, initializer, max_rounds=max_rounds, keep_results=keep_results
    )


def prepare_batch(
    protocol: Protocol,
    population: PopulationState,
    initializer: Initializer,
    *,
    trials: int,
    seed: int,
) -> tuple[BatchedPopulation, ProtocolState, np.random.Generator]:
    """Build the initialized ``(R, n)`` batch for ``trials`` trials of a run.

    The shared front half of every batched workload (``execute_run``, the
    trace-based θ sweep measure, the batched transition experiment): returns
    the initialized batch, its stacked protocol states, and the generator for
    the lock-step dynamics stream.

    ``population`` is the layout template — every trial of a condition shares
    its source structure, only the random starts differ — tiled into
    ``trials`` rows. One stream initializes the whole batch (one
    ``init_state_batch`` and one ``apply_batch`` call), the other drives the
    lock-step dynamics. One protocol instance serves the whole batch — valid
    because protocol instances hold round configuration only, with all
    per-agent state in the state dict (the
    :class:`~repro.core.protocol.Protocol` contract).
    """
    init_rng, batch_rng = spawn_rngs(seed, 2)
    batch = BatchedPopulation.from_population(population, trials)
    batch_states = protocol.init_state_batch(trials, population.n, init_rng)
    initializer.apply_batch(batch, protocol, batch_states, init_rng)
    return batch, batch_states, batch_rng


def make_batched_engine(
    spec: RunSpec,
    *,
    protocol: Protocol | None = None,
    initializer: Initializer | None = None,
    batched_sampler: BatchedSampler | None = None,
) -> BatchedEngine:
    """A fully prepared lock-step engine for ``spec`` — the core behind
    :meth:`RunSpec.batched_engine`.

    Resolves the protocol, initializer, batched observation model, and
    population layout from the spec (live-object keywords override), builds
    the initialized batch on the spec's seed, and returns the engine ready
    to ``run``.
    """
    if protocol is None:
        protocol = spec.build_protocol()
    if initializer is None:
        initializer = spec.build_initializer()
    if batched_sampler is None:
        batched_sampler = spec.samplers()[1]
    batch, states, rng = prepare_batch(
        protocol, spec.build_population(), initializer, trials=spec.trials, seed=spec.seed
    )
    return BatchedEngine(protocol, batch, sampler=batched_sampler, rng=rng, states=states)


def prepare_counts(
    protocol: Protocol,
    n: int,
    initializer: Initializer,
    *,
    trials: int,
    seed: int,
    correct_opinion: int = 1,
    num_sources: int = 1,
) -> tuple[CountPopulation, np.random.Generator]:
    """Build the initialized ``(R, S)`` count population for ``trials`` trials.

    The counts analogue of :func:`prepare_batch`: one stream initializes
    every replica's state-count vector via the initializer's count-level
    application, the second drives the lock-step dynamics. There is no
    per-agent fallback — initializers without ``supports_counts`` are a
    hard error, because a crafted per-agent layout has no faithful
    sufficient-statistic representation.
    """
    if not initializer.supports_counts:
        raise ValueError(
            f"initializer {initializer.name!r} builds per-agent configurations "
            "(supports_counts=False); the counts engine needs an exchangeable "
            "count-level initializer — use engine='batched'"
        )
    init_rng, dyn_rng = spawn_rngs(seed, 2)
    population = make_count_population(
        protocol, trials, n, num_sources=num_sources, correct_opinion=correct_opinion
    )
    initializer.apply_counts(population, protocol, init_rng)
    return population, dyn_rng


def make_count_engine(
    spec: RunSpec,
    *,
    protocol: Protocol | None = None,
    initializer: Initializer | None = None,
    sampler: BatchedSampler | None = None,
) -> CountEngine:
    """A fully prepared sufficient-statistic engine for ``spec`` — the core
    behind :meth:`RunSpec.count_engine`.

    Resolves the protocol, initializer, and fraction-keyed observation model
    from the spec (live-object keywords override), draws the initial count
    matrix on the spec's seed, and returns the engine ready to ``run``.
    Raises when any component has no count-level form: a protocol without a
    count model, a per-agent initializer, or an observation model that is
    not keyed on one-fractions.
    """
    if protocol is None:
        protocol = spec.build_protocol()
    if initializer is None:
        initializer = spec.build_initializer()
    if sampler is None:
        sampler = spec.samplers()[1]
    population, rng = prepare_counts(
        protocol,
        spec.n,
        initializer,
        trials=spec.trials,
        seed=spec.seed,
        correct_opinion=spec.correct_opinion,
        num_sources=spec.num_sources,
    )
    return CountEngine(protocol, population, sampler=sampler, rng=rng)


def _run_lockstep_trials(
    engine: BatchedEngine | CountEngine,
    spec: RunSpec,
    initializer: Initializer,
    *,
    max_rounds: int,
    keep_results: bool,
) -> TrialStats:
    """All trials of ``spec`` as one run of a prepared lock-step engine
    (batched ``(R, n)`` or counts ``(R, S)``).

    ``keep_results`` attaches a :class:`~repro.trace.FullTrace` recorder to
    the run and converts the recorded trajectory matrix back into per-trial
    :class:`RunResult` objects, so trajectory consumers get the lock-step
    speedup too.
    """
    recorder = FullTrace() if keep_results else None
    result = engine.run(
        max_rounds,
        stability_rounds=spec.stability_rounds,
        recorder=recorder,
        linger_rounds=spec.linger_rounds,
    )
    results = recorder.trace().to_run_results(result) if recorder is not None else []
    return TrialStats(
        protocol_name=engine.protocol.name,
        initializer_name=initializer.name,
        n=spec.n,
        trials=spec.trials,
        max_rounds=max_rounds,
        successes=result.successes,
        times=result.times(),
        results=results,
        engine="counts" if isinstance(engine, CountEngine) else "batched",
    )
