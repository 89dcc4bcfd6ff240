"""Tests for the exact pair Markov chain (Observation 1)."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import step_scalar
from repro.analysis.drift import drift_g
from repro.analysis.markov import ExactPairChain, next_count_distribution
from repro.core.population import make_population
from repro.core.rng import spawn_rngs
from repro.protocols.fet import FETProtocol


class TestNextCountDistribution:
    def test_sums_to_one(self):
        dist = next_count_distribution(10, 3, 5, 4)
        assert dist.sum() == pytest.approx(1.0)

    def test_source_floor(self):
        dist = next_count_distribution(10, 3, 5, 4)
        assert dist[0] == 0.0  # the pinned source guarantees k >= 1

    def test_all_ones_absorbing(self):
        n = 8
        dist = next_count_distribution(n, n, n, 4)
        assert dist[n] == pytest.approx(1.0)

    def test_mean_matches_drift_g(self):
        """The chain's conditional mean must equal n·g(x, y) (Observation 1)."""
        n, ell = 20, 5
        for i, j in [(1, 1), (5, 8), (12, 10), (19, 20)]:
            dist = next_count_distribution(n, i, j, ell)
            mean = float((np.arange(n + 1) * dist).sum())
            assert mean / n == pytest.approx(drift_g(i / n, j / n, ell, n), abs=1e-10)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            next_count_distribution(10, 0, 5, 4)


class TestExactPairChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExactPairChain(n=1, ell=2)
        with pytest.raises(ValueError):
            ExactPairChain(n=10, ell=0)
        with pytest.raises(ValueError):
            ExactPairChain(n=100, ell=2)  # too large for the dense solver

    def test_state_indexing_roundtrip(self):
        chain = ExactPairChain(n=7, ell=3)
        for i in range(1, 8):
            for j in range(1, 8):
                s = chain.state_index(i, j)
                assert chain.state_of(s) == (i, j)

    def test_transition_matrix_stochastic(self):
        chain = ExactPairChain(n=8, ell=3)
        matrix = chain.transition_matrix()
        assert matrix.shape == (64, 64)
        assert matrix.sum(axis=1) == pytest.approx(np.ones(64))

    def test_absorbing_state(self):
        chain = ExactPairChain(n=8, ell=3)
        assert chain.is_absorbing()
        matrix = chain.transition_matrix()
        row = matrix[chain.absorbing_index]
        assert row[chain.absorbing_index] == pytest.approx(1.0)

    def test_pair_structure(self):
        """From (i, j) the chain only reaches states of the form (j, k)."""
        chain = ExactPairChain(n=6, ell=3)
        matrix = chain.transition_matrix()
        for i in range(1, 7):
            for j in range(1, 7):
                row = matrix[chain.state_index(i, j)]
                for s in np.nonzero(row)[0]:
                    assert chain.state_of(int(s))[0] == j

    def test_absorption_times_positive(self):
        chain = ExactPairChain(n=8, ell=3)
        times = chain.expected_absorption_times()
        assert times[chain.absorbing_index] == 0.0
        transient = np.delete(times, chain.absorbing_index)
        assert (transient > 0).all()

    def test_near_absorbing_states_are_fast(self):
        chain = ExactPairChain(n=10, ell=4)
        near = chain.expected_time_from(9, 10)  # strong upward trend
        far = chain.expected_time_from(1, 1)
        assert near < far


class TestChainMatchesSimulation:
    def test_expected_time_matches_simulated_mean(self):
        """Ground truth: the engine must reproduce the exact chain's E[T]."""
        n, ell = 10, 4
        chain = ExactPairChain(n=n, ell=ell)
        exact = chain.expected_time_from_all_wrong()

        trials = 600
        total = 0.0
        for rng in spawn_rngs(2024, trials):
            proto = FETProtocol(ell)
            pop = make_population(n, 1)
            # All-wrong with counters matching x_{t-1} = 1/n, i.e. the (1, 1)
            # chain state: prev_count ~ Binomial(ell, 1/n).
            state = {"prev_count": rng.binomial(ell, 1 / n, size=n).astype(np.int64)}
            rounds = 0
            # Absorption at (n, n): two consecutive all-ones rounds.
            prev_all_ones = pop.at_correct_consensus()
            while rounds < 3000:
                step_scalar(proto, pop, state, rng)
                rounds += 1
                now_all_ones = pop.at_correct_consensus()
                if prev_all_ones and now_all_ones:
                    break
                prev_all_ones = now_all_ones
            total += rounds
        mean = total / trials
        # The exact chain counts steps of the pair process; the simulated
        # count reaches (n, n) one pair-transition at a time. Allow 10%
        # Monte-Carlo tolerance plus a one-round offset ambiguity.
        assert mean == pytest.approx(exact + 1, rel=0.12, abs=1.0)
