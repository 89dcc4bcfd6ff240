"""Synchronous round engine.

Drives a :class:`~repro.core.protocol.Protocol` over a
:class:`~repro.core.population.PopulationState` in synchronous rounds, exactly
as in the paper's model: every agent simultaneously observes, updates its
internal state, and publishes its next opinion. Detects convergence to the
correct consensus and (for self-stabilizing protocols such as FET) verifies a
stability window so that the reported time matches the paper's ``t_con`` — the
first round after which the configuration "remained unchanged forever after".

For FET specifically, two consecutive all-correct rounds are provably
absorbing: with ``x_t = x_{t+1} = 1`` every sampled block is all ones, both
counters equal ℓ, and the tie rule keeps every opinion. The default stability
window of 2 therefore makes the detection exact rather than heuristic.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..telemetry.registry import current_registry
from ..telemetry.spans import span
from .batch import _check_run_args
from .population import PopulationState
from .protocol import Protocol, ProtocolState
from .records import RoundRecord, RunResult
from .rng import as_rng
from .sampling import BinomialCountSampler, Sampler

if TYPE_CHECKING:  # pragma: no cover - typing only; trace layers on core
    from ..trace.recorder import TraceRecorder

__all__ = ["SynchronousEngine", "run_protocol"]


class SynchronousEngine:
    """Stateful simulation driver.

    Parameters
    ----------
    protocol:
        The update rule to execute.
    population:
        The population to mutate in place.
    sampler:
        PULL sampler; defaults to the fast exact-in-distribution
        :class:`BinomialCountSampler`.
    rng:
        Generator or integer seed for all stochastic choices.
    state:
        Pre-built internal protocol state (e.g. adversarial); defaults to the
        protocol's clean initial state.
    """

    def __init__(
        self,
        protocol: Protocol,
        population: PopulationState,
        *,
        sampler: Sampler | None = None,
        rng: int | np.random.Generator | None = None,
        state: ProtocolState | None = None,
    ) -> None:
        self.protocol = protocol
        self.population = population
        self.sampler = sampler if sampler is not None else BinomialCountSampler()
        self.rng = as_rng(rng)
        self.state = state if state is not None else protocol.init_state(population.n, self.rng)
        self.round_index = 0
        # The engine pins sources once up-front so that a sloppy caller cannot
        # start a single-source run with a deviating source opinion.
        if population.pin_each_round:
            population.pin_sources()

    def step(self) -> RoundRecord:
        """Run one synchronous round and return its summary.

        Flips are counted against the *published* opinion vectors, i.e. after
        sources are re-pinned: a source whose tentative opinion deviated but
        was pinned straight back never changed its public output.
        """
        x_before = self.population.fraction_ones()
        old = self.population.opinions
        new = self.protocol.step(self.population, self.state, self.sampler, self.rng)
        self.population.set_opinions(new)
        flips = int(np.count_nonzero(self.population.opinions != old))
        record = RoundRecord(
            round_index=self.round_index,
            x_before=x_before,
            x_after=self.population.fraction_ones(),
            flips=flips,
        )
        self.round_index += 1
        return record

    def run(
        self,
        max_rounds: int,
        *,
        stability_rounds: int = 2,
        record_flips: bool = False,
        stop_condition: Callable[[PopulationState], bool] | None = None,
        recorder: "TraceRecorder | None" = None,
    ) -> RunResult:
        """Run until convergence (correct consensus held for
        ``stability_rounds`` consecutive observations) or ``max_rounds``.

        ``stop_condition`` optionally replaces the correct-consensus test,
        e.g. for experiments that stop on *any* consensus (baseline dynamics).

        ``recorder`` optionally mirrors the run into the trace subsystem as a
        one-replica batch — the same :class:`~repro.trace.recorder.BatchTrace`
        shape the batched engine produces, which is what the
        batched-vs-sequential trace cross-checks compare.
        """
        with span("engine.run", engine="sequential"):
            return self._run(
                max_rounds,
                stability_rounds=stability_rounds,
                record_flips=record_flips,
                stop_condition=stop_condition,
                recorder=recorder,
            )

    def _run(
        self,
        max_rounds: int,
        *,
        stability_rounds: int,
        record_flips: bool,
        stop_condition: Callable[[PopulationState], bool] | None,
        recorder: "TraceRecorder | None",
    ) -> RunResult:
        _check_run_args(max_rounds, stability_rounds)
        condition = stop_condition or PopulationState.at_correct_consensus
        metrics = current_registry()
        run_start = time.perf_counter() if metrics is not None else 0.0
        trajectory = [self.population.fraction_ones()]
        flip_log: list[int] = []
        wants_flips = recorder is not None and getattr(recorder, "record_flips", False)
        if recorder is not None:
            population = self.population
            prefs = population.source_preferences[population.source_mask]
            recorder.bind(
                replicas=1,
                n=population.n,
                num_sources=int(population.source_mask.sum()),
                sources_correct=int((prefs == population.correct_opinion).sum()),
                correct_opinion=population.correct_opinion,
                pin_each_round=population.pin_each_round,
            )
            recorder.on_round(
                0,
                np.array([trajectory[0]], dtype=float),
                np.zeros(1, dtype=np.int64) if wants_flips else None,
            )
        streak = 1 if condition(self.population) else 0
        first_hit = 0 if streak else -1
        converged = streak >= stability_rounds
        rounds_done = 0
        while rounds_done < max_rounds and not converged:
            record = self.step()
            rounds_done += 1
            trajectory.append(record.x_after)
            if record_flips:
                flip_log.append(record.flips)
            if recorder is not None:
                recorder.on_round(
                    rounds_done,
                    np.array([record.x_after], dtype=float),
                    np.array([record.flips], dtype=np.int64) if wants_flips else None,
                )
            if condition(self.population):
                if streak == 0:
                    first_hit = rounds_done
                streak += 1
            else:
                streak = 0
                first_hit = -1
            converged = streak >= stability_rounds
        if metrics is not None:
            metrics.counter(
                "repro_engine_rounds_total",
                "Lock-step synchronous rounds executed, by engine.",
                engine="sequential",
            ).inc(rounds_done)
            metrics.histogram(
                "repro_engine_run_seconds",
                "Wall-clock seconds per engine run() call, by engine.",
                engine="sequential",
            ).observe(time.perf_counter() - run_start)
        return RunResult(
            converged=converged,
            rounds=first_hit if converged else rounds_done,
            trajectory=np.asarray(trajectory, dtype=float),
            flips=np.asarray(flip_log, dtype=np.int64),
        )


def run_protocol(
    protocol: Protocol,
    population: PopulationState,
    max_rounds: int,
    *,
    sampler: Sampler | None = None,
    rng: int | np.random.Generator | None = None,
    state: ProtocolState | None = None,
    stability_rounds: int = 2,
    record_flips: bool = False,
) -> RunResult:
    """One-shot convenience wrapper around :class:`SynchronousEngine`."""
    engine = SynchronousEngine(
        protocol,
        population,
        sampler=sampler,
        rng=rng,
        state=state,
    )
    return engine.run(
        max_rounds,
        stability_rounds=stability_rounds,
        record_flips=record_flips,
    )
