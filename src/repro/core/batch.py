"""Batched multi-replica simulation: R independent trials as one (R, n) system.

Every aggregate result in this repository is an average over many independent
trials of the *same* configuration: same ``n``, same source structure, same
protocol, different random streams. Under uniform-with-replacement ``PULL``
sampling the round update of a replica depends on the population only through
its one-fraction ``x_t`` — the same observation that makes
:class:`~repro.core.sampling.BinomialCountSampler` exact. R replicas can
therefore advance in lock-step as one matrix-shaped system:

* opinions live in a single ``(R, n)`` ``uint8`` matrix
  (:class:`BatchedPopulation`), sharing the source structure across rows;
* per-agent observations for the whole batch come from one
  :class:`~repro.core.sampling.BatchedSampler` call keyed on the ``(R,)``
  vector of per-replica one-fractions;
* per-agent protocol state is stacked the same way (leading replica axis), and
  vectorized protocols (those overriding ``Protocol.step_batch``) step every
  replica with a handful of numpy calls.

:class:`BatchedEngine` drives the batch in synchronous rounds:
per-replica stability-window tracking, convergence-round accounting
(``t_con`` = first round of the final all-correct streak), and *retirement* —
a replica whose streak reaches the stability window is removed from the
active working set, so finished trials stop costing work and their state
provably never changes again. The working set is kept compact (converged rows
are physically dropped, not masked), so late rounds with few stragglers cost
``O(active × n)``, not ``O(R × n)``.

That round loop is written once, in :func:`_run_lockstep`, and shared with the
sufficient-statistic :class:`~repro.core.counts.CountEngine`: the loop owns the
streak/lock/linger/retire state machine, the recorder hooks and the engine
metrics, and each engine supplies only its per-round step and how retiring rows
are written back. A single trial is the one-replica case:
:func:`run_protocol` runs it on the same loop and returns a per-trial
:class:`~repro.core.records.RunResult`.

Replicas share one dynamics stream, so R trials in one batch are exact in
distribution, not bitwise identical, to R one-replica runs. Trajectory- and
flip-recording consumers attach a :class:`~repro.trace.recorder.TraceRecorder`
(``run(recorder=...)``): the engine reports the full ``(R,)`` one-fraction
(and optionally flip-count) vector every round, with retired rows frozen at
their final value, so per-round logs survive retirement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..telemetry.registry import current_registry
from ..telemetry.spans import span
from .population import PopulationState
from .protocol import Protocol, ProtocolState
from .records import RunResult
from .rng import as_rng
from .sampling import BatchedBinomialSampler, BatchedSampler

if TYPE_CHECKING:  # pragma: no cover - typing only; trace layers on core
    from ..trace.recorder import TraceRecorder
    from .counts import CountEngine, CountPopulation

__all__ = [
    "BatchedPopulation",
    "BatchRunResult",
    "BatchedEngine",
    "run_protocol",
    "run_protocol_batched",
    "stack_states",
]


class BatchedPopulation:
    """R replicas of one population as a single ``(R, n)`` opinion matrix.

    All replicas share the source structure (``source_mask``,
    ``source_preferences``, ``correct_opinion``, ``pin_each_round``); each row
    is an independent copy of the opinion vector. The per-replica one-counts
    are cached exactly like :class:`PopulationState` caches its scalar count;
    callers that write into ``opinions`` directly must call
    :meth:`invalidate_cache`.
    """

    def __init__(
        self,
        opinions: np.ndarray,
        source_mask: np.ndarray,
        source_preferences: np.ndarray,
        correct_opinion: int,
        pin_each_round: bool = True,
    ) -> None:
        self.opinions = np.asarray(opinions, dtype=np.uint8)
        self.source_mask = np.asarray(source_mask, dtype=bool)
        self.source_preferences = np.asarray(source_preferences, dtype=np.uint8)
        self.correct_opinion = int(correct_opinion)
        self.pin_each_round = bool(pin_each_round)
        if self.opinions.ndim != 2:
            raise ValueError(f"opinions must have shape (R, n), got {self.opinions.shape}")
        replicas, n = self.opinions.shape
        if replicas < 1:
            raise ValueError("batch needs at least one replica")
        if n < 2:
            raise ValueError(f"population needs at least 2 agents, got {n}")
        if self.source_mask.shape != (n,) or self.source_preferences.shape != (n,):
            raise ValueError("source_mask and source_preferences must share shape (n,)")
        if self.correct_opinion not in (0, 1):
            raise ValueError(f"correct_opinion must be 0 or 1, got {self.correct_opinion}")
        if not self.source_mask.any():
            raise ValueError("population must contain at least one source agent")
        if not np.isin(self.opinions, (0, 1)).all():
            raise ValueError("opinions must be 0/1 valued")
        self._ones_count: np.ndarray | None = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def _trusted(
        cls,
        opinions: np.ndarray,
        source_mask: np.ndarray,
        source_preferences: np.ndarray,
        correct_opinion: int,
        pin_each_round: bool,
    ) -> "BatchedPopulation":
        """Wrap arrays known to satisfy the invariants, skipping the O(R·n)
        validation — for internal hot paths (row selection, copies)."""
        batch = object.__new__(cls)
        batch.opinions = opinions
        batch.source_mask = source_mask
        batch.source_preferences = source_preferences
        batch.correct_opinion = correct_opinion
        batch.pin_each_round = pin_each_round
        batch._ones_count = None
        return batch

    @classmethod
    def from_population(cls, population: PopulationState, replicas: int) -> "BatchedPopulation":
        """Tile one population into ``replicas`` identical rows."""
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        return cls(
            opinions=np.tile(population.opinions, (replicas, 1)),
            source_mask=population.source_mask.copy(),
            source_preferences=population.source_preferences.copy(),
            correct_opinion=population.correct_opinion,
            pin_each_round=population.pin_each_round,
        )

    # ------------------------------------------------------------------ views

    @property
    def replicas(self) -> int:
        return int(self.opinions.shape[0])

    @property
    def n(self) -> int:
        return int(self.opinions.shape[1])

    @property
    def num_sources(self) -> int:
        return int(self.source_mask.sum())

    @property
    def nonsource_mask(self) -> np.ndarray:
        return ~self.source_mask

    def count_ones(self) -> np.ndarray:
        """Per-replica number of 1-opinions, shape ``(R,)``."""
        if self._ones_count is None:
            self._ones_count = self.opinions.sum(axis=1, dtype=np.int64)
        return self._ones_count

    def fraction_ones(self) -> np.ndarray:
        """Per-replica ``x_t``, shape ``(R,)``."""
        return self.count_ones() / self.n

    def invalidate_cache(self) -> None:
        """Drop the cached one-counts after a direct write into ``opinions``."""
        self._ones_count = None

    def replica(self, r: int) -> PopulationState:
        """Single-replica :class:`PopulationState` over row ``r``.

        The returned state is a read snapshot backed by a *view* of row ``r``;
        it shares the source arrays. Mutating it through its own methods
        rebinds its arrays and does not propagate back to the batch — the
        generic per-replica fallback writes results back explicitly.
        """
        return PopulationState(
            opinions=self.opinions[r],
            source_mask=self.source_mask,
            source_preferences=self.source_preferences,
            correct_opinion=self.correct_opinion,
            pin_each_round=self.pin_each_round,
        )

    # -------------------------------------------------------------- mutation

    def set_opinions(self, new_opinions: np.ndarray) -> None:
        """Replace all rows, then re-pin sources in every replica."""
        new_opinions = np.asarray(new_opinions, dtype=np.uint8)
        if new_opinions.shape != self.opinions.shape:
            raise ValueError("opinion matrix shape mismatch")
        self.opinions = new_opinions
        self.invalidate_cache()
        if self.pin_each_round:
            self.pin_sources()

    def pin_sources(self) -> None:
        """Force every source agent's opinion to its preference, in every row."""
        self.opinions[:, self.source_mask] = self.source_preferences[self.source_mask][None, :]
        self.invalidate_cache()

    def adversarial_opinions(
        self, opinions: np.ndarray, *, pin_sources: bool = True, validate: bool = True
    ) -> None:
        """Install an adversarial ``(R, n)`` opinion configuration.

        The batched analogue of :meth:`PopulationState.adversarial_opinions`;
        ``validate=False`` skips the O(R·n) 0/1 check for initializers whose
        matrices are 0/1 by construction.
        """
        opinions = np.asarray(opinions, dtype=np.uint8)
        if opinions.shape != self.opinions.shape:
            raise ValueError("opinion matrix shape mismatch")
        if validate and not np.isin(opinions, (0, 1)).all():
            raise ValueError("opinions must be 0/1 valued")
        self.opinions = opinions.copy()
        self.invalidate_cache()
        if pin_sources:
            self.pin_sources()

    # ------------------------------------------------------------ predicates

    def at_consensus(self) -> np.ndarray:
        """Per-replica: every agent outputs the same opinion. Shape ``(R,)``."""
        ones = self.count_ones()
        return (ones == 0) | (ones == self.n)

    def at_correct_consensus(self) -> np.ndarray:
        """Per-replica: every agent outputs the correct opinion. Shape ``(R,)``."""
        ones = self.count_ones()
        return ones == self.n if self.correct_opinion == 1 else ones == 0

    def nonsource_correct_fraction(self) -> np.ndarray:
        """Per-replica fraction of non-source agents on the correct opinion."""
        nonsource = self.opinions[:, self.nonsource_mask]
        if nonsource.shape[1] == 0:
            return np.ones(self.replicas)
        return (nonsource == self.correct_opinion).mean(axis=1)

    # ----------------------------------------------------------------- misc

    def select(self, rows: np.ndarray) -> "BatchedPopulation":
        """New batch holding only ``rows`` (boolean mask or index array).

        Opinion rows are copied; the shared source structure is not. Used by
        the engine to compact the working set when replicas retire.
        """
        sub = BatchedPopulation._trusted(
            opinions=self.opinions[rows],
            source_mask=self.source_mask,
            source_preferences=self.source_preferences,
            correct_opinion=self.correct_opinion,
            pin_each_round=self.pin_each_round,
        )
        if self._ones_count is not None:
            sub._ones_count = self._ones_count[rows]
        return sub

    def copy(self) -> "BatchedPopulation":
        return BatchedPopulation._trusted(
            opinions=self.opinions.copy(),
            source_mask=self.source_mask.copy(),
            source_preferences=self.source_preferences.copy(),
            correct_opinion=self.correct_opinion,
            pin_each_round=self.pin_each_round,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchedPopulation(replicas={self.replicas}, n={self.n})"


def stack_states(states: Sequence[ProtocolState]) -> ProtocolState:
    """Stack per-replica protocol states along a new leading replica axis.

    ``R`` states with arrays of shape ``s`` become one state with arrays of
    shape ``(R, *s)``. Stateless protocols (empty dicts) stack to an empty
    dict.
    """
    if not states:
        raise ValueError("need at least one state")
    keys = set(states[0])
    for state in states[1:]:
        if set(state) != keys:
            raise ValueError("all replica states must hold the same variables")
    return {key: np.stack([state[key] for state in states]) for key in keys}


@dataclass
class BatchRunResult:
    """Per-replica outcome of a :class:`BatchedEngine` run.

    Attributes
    ----------
    converged:
        ``(R,)`` bool — replica reached the correct consensus and held it for
        the stability window before ``max_rounds``.
    rounds:
        ``(R,)`` int — the replica's ``t_con`` (first round of the final
        streak) when converged, else the number of rounds executed; the
        per-replica :attr:`RunResult.rounds`.
    rounds_executed:
        ``(R,)`` int — synchronous rounds actually simulated for the replica
        (its retirement round, or ``max_rounds``). Throughput accounting.
    final_fractions:
        ``(R,)`` float — one-fraction of each replica's final configuration.
    """

    converged: np.ndarray
    rounds: np.ndarray
    rounds_executed: np.ndarray
    final_fractions: np.ndarray

    @property
    def replicas(self) -> int:
        return int(self.converged.shape[0])

    @property
    def successes(self) -> int:
        return int(np.count_nonzero(self.converged))

    def times(self) -> np.ndarray:
        """Convergence rounds of the successful replicas, as floats."""
        return self.rounds[self.converged].astype(float)

    def summary(self) -> dict:
        return {
            "replicas": self.replicas,
            "successes": self.successes,
            "total_rounds_executed": int(self.rounds_executed.sum()),
        }


def _check_run_args(max_rounds: int, stability_rounds: int, linger_rounds: int = 0) -> None:
    """The ``run`` argument contract shared by every engine."""
    # Same bound and message as run_trials: a 0-round budget cannot observe
    # anything, so it is an error rather than an instant "nothing converged".
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if stability_rounds < 1:
        raise ValueError(f"stability_rounds must be >= 1, got {stability_rounds}")
    if linger_rounds < 0:
        raise ValueError(f"linger_rounds must be non-negative, got {linger_rounds}")


def _run_lockstep(
    engine: "BatchedEngine | CountEngine",
    population: "BatchedPopulation | CountPopulation",
    max_rounds: int,
    *,
    stability_rounds: int,
    stop_condition: Callable[[Any], np.ndarray] | None,
    recorder: "TraceRecorder | None",
    linger_rounds: int,
    label: str,
    layout: dict,
    step: Callable[[Any, bool], np.ndarray | None],
    retire: Callable[[np.ndarray, np.ndarray, np.ndarray, Any], None],
    reports_flips: bool = True,
) -> BatchRunResult:
    """The lock-step round loop behind :meth:`BatchedEngine.run` and
    :meth:`~repro.core.counts.CountEngine.run`.

    It owns everything the two representations share: the single-shot guard,
    argument validation, per-replica streaks and ``t_con`` accounting, the
    lock/linger/retire state machine over a compact working set, the
    recorder hooks, and the ``repro_engine_*`` metrics. ``population`` is the
    engine's full batch (``(R, n)`` opinions or ``(R, S)`` counts); the
    engine supplies only what differs:

    * ``step(work, wants_flips)`` advances the working set one round in
      place and returns its per-row flip counts when ``wants_flips``;
    * ``retire(retired, done, keep, work)`` writes the finished working rows
      ``work[done]`` back to replicas ``retired`` of ``population`` and
      compacts any per-row engine state down to ``keep``;
    * ``layout`` holds the :meth:`TraceRecorder.bind` keywords besides
      ``replicas``; ``label`` is the ``engine`` metric label;
    * ``reports_flips=False`` rejects recorders that ask for flip counts.
    """
    if engine._consumed:
        raise RuntimeError(
            f"{type(engine).__name__}.run is single-shot; build a fresh engine to run again"
        )
    engine._consumed = True
    _check_run_args(max_rounds, stability_rounds, linger_rounds)
    wants_flips = recorder is not None and getattr(recorder, "record_flips", False)
    if wants_flips and not reports_flips:
        raise ValueError(
            f"the {label} engine cannot record flips: per-agent flip counts "
            "are not a function of the state-count sufficient statistic; "
            "use engine='batched' for flip recording"
        )
    condition = stop_condition or type(population).at_correct_consensus
    metrics = current_registry()
    run_start = time.perf_counter() if metrics is not None else 0.0

    total = population.replicas
    converged = np.zeros(total, dtype=bool)
    rounds = np.zeros(total, dtype=np.int64)
    rounds_executed = np.zeros(total, dtype=np.int64)

    # Compact working set: only rows still running. ``ids`` maps working
    # row -> replica index in the full batch.
    ids = np.arange(total)
    work = population.select(ids)

    if recorder is not None:
        recorder.bind(replicas=total, **layout)
        # Full-batch value vectors; retired rows simply stop being
        # written, which freezes them at their final values.
        current_x = work.fraction_ones().astype(float)
        current_flips = np.zeros(total, dtype=np.int64) if wants_flips else None
        recorder.on_round(0, current_x, current_flips)

    ok = condition(work)
    streak = ok.astype(np.int64)
    first_hit = np.where(ok, 0, -1)
    # Lock/linger bookkeeping: a replica whose streak reaches the
    # stability window is *locked* (its outcome is final) but keeps
    # stepping for ``linger_rounds`` more rounds before it retires.
    locked = np.zeros(total, dtype=bool)
    locked_round = np.full(total, -1, dtype=np.int64)
    countdown = np.zeros(total, dtype=np.int64)
    rounds_done = 0

    while True:
        newly_locked = ~locked & (streak >= stability_rounds)
        if newly_locked.any():
            locked_round = np.where(newly_locked, first_hit, locked_round)
            countdown = np.where(newly_locked, linger_rounds, countdown)
            locked = locked | newly_locked
        done = locked & (countdown <= 0)
        if rounds_done >= max_rounds:
            # Budget exhausted: unconverged replicas stop here; locked
            # replicas mid-linger keep stepping their settle window out.
            done = done | ~locked
        if done.any():
            retired = ids[done]
            conv = locked[done]
            converged[retired] = conv
            rounds[retired] = np.where(conv, locked_round[done], rounds_done)
            rounds_executed[retired] = rounds_done
            keep = ~done
            retire(retired, done, keep, work)
            ids = ids[keep]
            streak = streak[keep]
            first_hit = first_hit[keep]
            locked = locked[keep]
            locked_round = locked_round[keep]
            countdown = countdown[keep]
            if ids.size:
                work = work.select(keep)
        if ids.size == 0:
            break
        flips = step(work, wants_flips)
        rounds_done += 1
        engine.round_index += 1
        countdown = countdown - locked
        ok = condition(work)
        # Locked replicas stop tracking the condition: their outcome was
        # sealed at detection (a settle window steps on without
        # re-checking).
        tracking = ~locked
        newly_ok = ok & (streak == 0) & tracking
        streak = np.where(tracking, np.where(ok, streak + 1, 0), streak)
        first_hit = np.where(
            tracking,
            np.where(ok, np.where(newly_ok, rounds_done, first_hit), -1),
            first_hit,
        )
        if recorder is not None:
            current_x[ids] = work.fraction_ones()
            if wants_flips:
                current_flips[:] = 0
                current_flips[ids] = flips
            recorder.on_round(rounds_done, current_x, current_flips)

    population.invalidate_cache()
    if metrics is not None:
        metrics.counter(
            "repro_engine_rounds_total",
            "Lock-step synchronous rounds executed, by engine.",
            engine=label,
        ).inc(rounds_done)
        metrics.counter(
            "repro_engine_replicas_retired_total",
            "Replicas that left the batched working set (converged, "
            "lingered out, or budget-exhausted).",
        ).inc(total)
        metrics.histogram(
            "repro_engine_run_seconds",
            "Wall-clock seconds per engine run() call, by engine.",
            engine=label,
        ).observe(time.perf_counter() - run_start)
    return BatchRunResult(
        converged=converged,
        rounds=rounds,
        rounds_executed=rounds_executed,
        final_fractions=population.fraction_ones(),
    )


class BatchedEngine:
    """Lock-step driver for R replicas with per-replica retirement.

    Parameters
    ----------
    protocol:
        The update rule; stepped through :meth:`Protocol.step_batch` (the
        vectorized implementation when the protocol provides one, else the
        generic per-replica fallback). One protocol instance serves the whole
        batch, so instance attributes must be round configuration only — all
        per-agent state belongs in the state dict, which is the existing
        contract of :class:`Protocol`.
    batch:
        The replicas to simulate. After :meth:`run`, ``batch.opinions`` holds
        every replica's *final* configuration (frozen at retirement).
    sampler:
        Batched PULL sampler; defaults to the tiered exact
        :class:`BatchedBinomialSampler`.
    rng:
        Generator or integer seed for the shared dynamics stream.
    states:
        Batched internal protocol state: arrays with a leading replica axis,
        e.g. from :func:`stack_states`. Defaults to stacking R fresh
        ``protocol.init_state`` draws. The engine owns the dict (it compacts
        it on retirement).
    """

    def __init__(
        self,
        protocol: Protocol,
        batch: BatchedPopulation,
        *,
        sampler: BatchedSampler | None = None,
        rng: int | np.random.Generator | None = None,
        states: ProtocolState | None = None,
    ) -> None:
        self.protocol = protocol
        self.batch = batch
        self.sampler = sampler if sampler is not None else BatchedBinomialSampler()
        self.rng = as_rng(rng)
        if states is None:
            states = protocol.init_state_batch(batch.replicas, batch.n, self.rng)
        self.states = states
        self.round_index = 0
        self._consumed = False
        # Pin once up-front so a sloppy caller cannot start with a deviating
        # source opinion in any replica.
        if batch.pin_each_round:
            batch.pin_sources()

    def run(
        self,
        max_rounds: int,
        *,
        stability_rounds: int = 2,
        stop_condition: Callable[[BatchedPopulation], np.ndarray] | None = None,
        recorder: "TraceRecorder | None" = None,
        linger_rounds: int = 0,
    ) -> BatchRunResult:
        """Run until every replica converged (condition held for
        ``stability_rounds`` consecutive observations) or ``max_rounds``.

        ``stop_condition`` optionally replaces the correct-consensus test; it
        must map a :class:`BatchedPopulation` to an ``(A,)`` boolean vector
        over its rows (e.g. :meth:`BatchedPopulation.at_consensus`).

        ``recorder`` optionally captures per-replica trajectories: the engine
        reports the full ``(R,)`` one-fraction vector (and, when the recorder
        asks for them, per-replica flip counts) for round 0 and after every
        executed round, with retired rows frozen at their final values.

        ``linger_rounds`` keeps a replica running that many extra rounds
        after its convergence is detected before retiring it — convergence
        accounting (``converged``/``rounds``) is locked at detection and not
        revisited. This is the settle-window hook: the θ measure keeps
        stepping each replica after its stop condition fired, and linger
        does that per replica under retirement (the extra rounds are allowed
        to run past ``max_rounds``).

        Single-shot: retirement compacts the protocol state down to the
        replicas that were still running, so a second ``run`` on the same
        engine has no coherent state to resume from and is rejected. Build a
        fresh engine to continue simulating.
        """
        batch = self.batch

        def step(work: BatchedPopulation, wants_flips: bool) -> np.ndarray | None:
            old = work.opinions.copy() if wants_flips else None
            work.set_opinions(self.protocol.step_batch(work, self.states, self.sampler, self.rng))
            return np.count_nonzero(work.opinions != old, axis=1) if wants_flips else None

        def retire(retired, done, keep, work: BatchedPopulation) -> None:
            batch.opinions[retired] = work.opinions[done]
            self.states = {key: value[keep] for key, value in self.states.items()}

        prefs = batch.source_preferences[batch.source_mask]
        with span("engine.run", engine="batched"):
            return _run_lockstep(
                self,
                batch,
                max_rounds,
                stability_rounds=stability_rounds,
                stop_condition=stop_condition,
                recorder=recorder,
                linger_rounds=linger_rounds,
                label="batched",
                layout=dict(
                    n=batch.n,
                    num_sources=batch.num_sources,
                    sources_correct=int((prefs == batch.correct_opinion).sum()),
                    correct_opinion=batch.correct_opinion,
                    pin_each_round=batch.pin_each_round,
                ),
                step=step,
                retire=retire,
            )


def run_protocol_batched(
    protocol: Protocol,
    population: PopulationState,
    replicas: int,
    max_rounds: int,
    *,
    sampler: BatchedSampler | None = None,
    rng: int | np.random.Generator | None = None,
    states: ProtocolState | None = None,
    stability_rounds: int = 2,
    recorder: "TraceRecorder | None" = None,
) -> BatchRunResult:
    """One-shot convenience: tile ``population`` and run the batched engine."""
    batch = BatchedPopulation.from_population(population, replicas)
    engine = BatchedEngine(protocol, batch, sampler=sampler, rng=rng, states=states)
    return engine.run(max_rounds, stability_rounds=stability_rounds, recorder=recorder)


def run_protocol(
    protocol: Protocol,
    population: PopulationState,
    max_rounds: int,
    *,
    sampler: BatchedSampler | None = None,
    rng: int | np.random.Generator | None = None,
    state: ProtocolState | None = None,
    stability_rounds: int = 2,
    record_flips: bool = False,
) -> RunResult:
    """Run one trial until convergence or ``max_rounds``.

    The single-run front door: a one-replica :class:`BatchedEngine` run with
    a :class:`~repro.trace.recorder.FullTrace` recorder, returned as a
    per-trial :class:`RunResult` (trajectory from round 0, per-round flip
    counts when ``record_flips``). ``state`` defaults to a fresh
    ``protocol.init_state`` draw on ``rng``; ``sampler`` is a batched
    observation model (default :class:`BatchedBinomialSampler`). Afterwards
    ``population`` holds the final opinions and ``state`` the final internal
    state, so a caller can keep stepping the scalar rule from there.
    """
    from ..trace.recorder import FullTrace  # trace layers on core

    if sampler is not None and not isinstance(sampler, BatchedSampler):
        raise TypeError(
            f"run_protocol needs a BatchedSampler, got {type(sampler).__name__}; "
            "wrap scalar models in their batched side (e.g. BatchedIndexSampler)"
        )
    rng = as_rng(rng)
    if state is None:
        state = protocol.init_state(population.n, rng)
    states = stack_states([state])
    batch = BatchedPopulation.from_population(population, 1)
    engine = BatchedEngine(protocol, batch, sampler=sampler, rng=rng, states=states)
    recorder = FullTrace(record_flips=record_flips)
    outcome = engine.run(max_rounds, stability_rounds=stability_rounds, recorder=recorder)
    # ``states`` holds the final round: retirement rebinds ``engine.states``
    # to a compacted copy and leaves this dict as the last step left it.
    state.update({key: value[0] for key, value in states.items()})
    population.set_opinions(batch.opinions[0].copy())
    return recorder.trace().to_run_results(outcome)[0]
