"""Tests for single-trial runs: ``run_protocol``, a one-replica lock-step run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchedEngine, BatchedPopulation, run_protocol
from repro.core.population import make_population
from repro.core.protocol import Protocol
from repro.core.rng import make_rng
from repro.core.sampling import IndexSampler
from repro.initializers.standard import AllWrong
from repro.protocols.fet import FETProtocol


class ConstantProtocol(Protocol):
    """Sets every opinion to a constant — a minimal test protocol."""

    name = "constant"

    def __init__(self, value: int) -> None:
        self.value = value

    def init_state(self, n, rng):
        return {}

    def step(self, population, state, sampler, rng):
        return np.full(population.n, self.value, dtype=np.uint8)


class FlipFlopProtocol(Protocol):
    """Alternates all opinions every round — never converges."""

    name = "flipflop"

    def init_state(self, n, rng):
        return {}

    def step(self, population, state, sampler, rng):
        return (1 - population.opinions).astype(np.uint8)


class TestEngineBasics:
    def test_step_counts_rounds(self):
        # One all-correct round, one confirmation round: two rounds executed,
        # logged after the initial configuration.
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0)
        assert result.trajectory.size == 3

    def test_step_record_fields(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0, record_flips=True)
        assert result.trajectory[0] == pytest.approx(0.1)
        assert result.trajectory[1] == pytest.approx(1.0)
        assert result.flips[0] == 9

    def test_source_pinned_by_engine(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(0), pop, 1, rng=0)
        assert pop.opinions[0] == 1  # source re-pinned after each step
        assert result.trajectory[1] == pytest.approx(0.1)

    def test_engine_pins_at_construction(self):
        pop = make_population(10, 1)
        pop.opinions[0] = 0  # sloppy caller corrupts the source
        pop.invalidate_cache()
        result = run_protocol(ConstantProtocol(0), pop, 1, rng=0)
        assert result.trajectory[0] == pytest.approx(0.1)  # pinned before round 0
        assert pop.opinions[0] == 1

    def test_final_opinions_and_state_written_back(self):
        n, ell = 200, 12
        pop = make_population(n, 1)
        proto = FETProtocol(ell)
        rng = make_rng(4)
        state = proto.init_state(n, rng)
        AllWrong()(pop, proto, state, rng)
        result = run_protocol(proto, pop, 2000, rng=rng, state=state)
        assert result.converged
        assert pop.at_correct_consensus()
        # the last round sampled an all-ones population
        assert (state["prev_count"] == ell).all()

    def test_scalar_sampler_rejected(self):
        pop = make_population(10, 1)
        with pytest.raises(TypeError, match="BatchedSampler"):
            run_protocol(ConstantProtocol(1), pop, 5, rng=0, sampler=IndexSampler())


class TestRun:
    def test_converges_with_constant_correct(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0)
        assert result.converged
        assert result.rounds == 1  # first all-correct round

    def test_never_converges_with_wrong_constant(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(0), pop, 20, rng=0)
        assert not result.converged
        assert result.rounds == 20

    def test_flipflop_never_converges(self):
        pop = make_population(10, 1)
        result = run_protocol(FlipFlopProtocol(), pop, 30, rng=0)
        assert not result.converged

    def test_trajectory_includes_initial(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0)
        assert result.trajectory[0] == pytest.approx(0.1)
        assert result.trajectory[-1] == pytest.approx(1.0)

    def test_stability_window_respected(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0, stability_rounds=4)
        assert result.converged
        # Convergence time reported is still the first all-correct round.
        assert result.rounds == 1
        # Engine had to actually observe 4 consecutive all-correct rounds.
        assert len(result.trajectory) >= 4

    def test_already_converged_start(self):
        pop = make_population(10, 1)
        pop.set_opinions(np.ones(10, dtype=np.uint8))
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0)
        assert result.converged
        assert result.rounds == 0

    def test_zero_max_rounds(self):
        # Same run-argument contract as the lock-step engines: a 0-round
        # budget cannot observe anything, so it is rejected up front.
        pop = make_population(10, 1)
        with pytest.raises(ValueError, match="max_rounds must be >= 1, got 0"):
            run_protocol(ConstantProtocol(1), pop, 0, rng=0, stability_rounds=1)

    def test_negative_max_rounds_rejected(self):
        pop = make_population(10, 1)
        with pytest.raises(ValueError, match="max_rounds must be >= 1"):
            run_protocol(ConstantProtocol(1), pop, -1, rng=0)

    def test_record_flips(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0, record_flips=True)
        assert result.flips.size >= 1
        assert result.flips[0] == 9

    def test_custom_stop_condition(self):
        batch = BatchedPopulation.from_population(make_population(10, 1), 1)
        engine = BatchedEngine(FlipFlopProtocol(), batch, rng=0)
        result = engine.run(
            30,
            stability_rounds=1,
            stop_condition=lambda b: b.fraction_ones() > 0.5,
        )
        assert result.converged[0]
        assert result.rounds[0] == 1  # first flip sends everyone (but source) to 1


class TestEngineWithFET:
    def test_reproducible_with_seed(self):
        def run_once():
            pop = make_population(300, 1)
            proto = FETProtocol(20)
            rng = make_rng(99)
            state = proto.init_state(300, rng)
            return run_protocol(proto, pop, 500, rng=rng, state=state)

        r1, r2 = run_once(), run_once()
        assert r1.rounds == r2.rounds
        assert np.array_equal(r1.trajectory, r2.trajectory)

    def test_fet_absorbing_after_two_correct_rounds(self):
        """Two all-correct rounds are provably absorbing for FET."""
        n = 200
        pop = make_population(n, 1)
        pop.set_opinions(np.ones(n, dtype=np.uint8))
        proto = FETProtocol(10)
        state = {"prev_count": np.full(n, 10, dtype=np.int64)}  # as after an all-1 round
        result = run_protocol(proto, pop, 50, rng=0, state=state)
        assert result.converged
        assert (result.trajectory == 1.0).all()

    def test_pairs_shape(self):
        pop = make_population(100, 1)
        proto = FETProtocol(10)
        result = run_protocol(proto, pop, 100, rng=1)
        pairs = result.pairs()
        assert pairs.shape == (result.trajectory.size - 1, 2)
        assert np.array_equal(pairs[:, 0], result.trajectory[:-1])


class SourceDeviatorProtocol(Protocol):
    """Sets every opinion to 0 — including the source, which gets re-pinned."""

    name = "source-deviator"

    def init_state(self, n, rng):
        return {}

    def step(self, population, state, sampler, rng):
        return np.zeros(population.n, dtype=np.uint8)


class TestFlipAccounting:
    def test_flips_counted_after_source_repin(self):
        # All agents already hold 1. The protocol proposes all-zeros; the
        # engine re-pins the source, so the *published* vector flips only the
        # 9 non-source agents. Counting before the pin would report 10.
        pop = make_population(10, 1)
        pop.set_opinions(np.ones(10, dtype=np.uint8))
        result = run_protocol(SourceDeviatorProtocol(), pop, 1, rng=0, record_flips=True)
        assert result.flips.tolist() == [9]

    def test_steady_source_not_a_flip(self):
        # From the all-correct configuration a constant-correct protocol
        # publishes an identical vector: zero flips, source included.
        pop = make_population(10, 1)
        pop.set_opinions(np.ones(10, dtype=np.uint8))
        result = run_protocol(ConstantProtocol(1), pop, 5, rng=0, record_flips=True)
        assert result.flips.tolist() == [0]


class TestStabilityValidation:
    def test_zero_stability_rejected(self):
        pop = make_population(10, 1)
        with pytest.raises(ValueError, match="stability_rounds"):
            run_protocol(ConstantProtocol(1), pop, 10, rng=0, stability_rounds=0)

    def test_negative_stability_rejected(self):
        pop = make_population(10, 1)
        with pytest.raises(ValueError, match="stability_rounds"):
            run_protocol(ConstantProtocol(1), pop, 10, rng=0, stability_rounds=-3)
