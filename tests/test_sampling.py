"""Tests for the PULL sampling substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchedPopulation
from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.core.sampling import (
    BatchedBinomialSampler,
    BatchedIndexSampler,
    BinomialCountSampler,
    IndexSampler,
)


def population_with_fraction(n: int, x: float):
    pop = make_population(n, 1)
    opinions = np.zeros(n, dtype=np.uint8)
    opinions[: int(round(x * n))] = 1
    pop.adversarial_opinions(opinions)
    return pop


class TestBinomialCountSampler:
    def test_counts_shape(self):
        pop = population_with_fraction(100, 0.3)
        counts = BinomialCountSampler().counts(pop, 10, make_rng(0))
        assert counts.shape == (100,)

    def test_counts_range(self):
        pop = population_with_fraction(100, 0.3)
        counts = BinomialCountSampler().counts(pop, 10, make_rng(0))
        assert counts.min() >= 0 and counts.max() <= 10

    def test_zero_ell(self):
        pop = population_with_fraction(100, 0.3)
        counts = BinomialCountSampler().counts(pop, 0, make_rng(0))
        assert (counts == 0).all()

    def test_negative_ell_rejected(self):
        pop = population_with_fraction(10, 0.3)
        with pytest.raises(ValueError):
            BinomialCountSampler().counts(pop, -1, make_rng(0))

    def test_all_ones_population(self):
        pop = population_with_fraction(50, 1.0)
        counts = BinomialCountSampler().counts(pop, 7, make_rng(0))
        assert (counts == 7).all()

    def test_mean_matches_fraction(self):
        pop = population_with_fraction(4000, 0.4)
        counts = BinomialCountSampler().counts(pop, 20, make_rng(1))
        assert counts.mean() / 20 == pytest.approx(0.4, abs=0.02)

    def test_blocks_shape(self):
        pop = population_with_fraction(100, 0.3)
        blocks = BinomialCountSampler().count_blocks(pop, 10, 2, make_rng(0))
        assert blocks.shape == (2, 100)

    def test_blocks_are_not_identical(self):
        pop = population_with_fraction(500, 0.5)
        blocks = BinomialCountSampler().count_blocks(pop, 10, 2, make_rng(0))
        assert not np.array_equal(blocks[0], blocks[1])

    def test_no_indices(self):
        pop = population_with_fraction(10, 0.3)
        with pytest.raises(NotImplementedError):
            BinomialCountSampler().indices(pop, 2, make_rng(0))


class TestIndexSampler:
    def test_indices_shape_and_range(self):
        pop = population_with_fraction(30, 0.5)
        idx = IndexSampler().indices(pop, 5, make_rng(0))
        assert idx.shape == (30, 5)
        assert idx.min() >= 0 and idx.max() < 30

    def test_exclude_self(self):
        pop = population_with_fraction(20, 0.5)
        sampler = IndexSampler(exclude_self=True)
        for seed in range(5):
            idx = sampler.indices(pop, 8, make_rng(seed))
            own = np.arange(20)[:, None]
            assert (idx != own).all()

    def test_exclude_self_covers_all_others(self):
        pop = population_with_fraction(5, 0.5)
        idx = IndexSampler(exclude_self=True).indices(pop, 2000, make_rng(3))
        for agent in range(5):
            others = set(range(5)) - {agent}
            assert set(np.unique(idx[agent])) == others

    def test_counts_match_indices(self):
        pop = population_with_fraction(40, 0.25)
        counts = IndexSampler().counts(pop, 6, make_rng(2))
        assert counts.shape == (40,)
        assert counts.min() >= 0 and counts.max() <= 6

    def test_zero_ell_counts(self):
        pop = population_with_fraction(40, 0.25)
        counts = IndexSampler().counts(pop, 0, make_rng(2))
        assert (counts == 0).all()

    def test_negative_ell_rejected(self):
        pop = population_with_fraction(10, 0.3)
        with pytest.raises(ValueError):
            IndexSampler().indices(pop, -2, make_rng(0))


class TestDistributionalAgreement:
    """The fast sampler must match the literal sampler in distribution."""

    def test_count_means_agree(self):
        pop = population_with_fraction(2000, 0.3)
        ell = 15
        fast = BinomialCountSampler().counts(pop, ell, make_rng(10))
        literal = IndexSampler().counts(pop, ell, make_rng(11))
        # Means of 2000 Binomial(15, 0.3) draws: sd of mean ~ 0.04.
        assert fast.mean() == pytest.approx(literal.mean(), abs=0.25)

    def test_count_variances_agree(self):
        pop = population_with_fraction(2000, 0.3)
        ell = 15
        fast = BinomialCountSampler().counts(pop, ell, make_rng(12))
        literal = IndexSampler().counts(pop, ell, make_rng(13))
        assert fast.var() == pytest.approx(literal.var(), rel=0.2)

    def test_histograms_agree(self):
        pop = population_with_fraction(5000, 0.5)
        ell = 8
        fast = BinomialCountSampler().counts(pop, ell, make_rng(14))
        literal = IndexSampler().counts(pop, ell, make_rng(15))
        hist_fast = np.bincount(fast, minlength=ell + 1) / fast.size
        hist_lit = np.bincount(literal, minlength=ell + 1) / literal.size
        assert np.abs(hist_fast - hist_lit).max() < 0.03


class TestBatchedIndexSampler:
    """The literal batched sampler against the fast batched one and against
    its exact ``exclude_self`` law."""

    def test_count_means_agree(self):
        batch = BatchedPopulation.from_population(population_with_fraction(2000, 0.3), 2)
        ell = 15
        fast = BatchedBinomialSampler().counts(batch, ell, make_rng(10))
        literal = BatchedIndexSampler().counts(batch, ell, make_rng(11))
        assert literal.shape == (2, 2000)
        assert fast.mean() == pytest.approx(literal.mean(), abs=0.25)

    def test_count_variances_agree(self):
        batch = BatchedPopulation.from_population(population_with_fraction(2000, 0.3), 2)
        ell = 15
        fast = BatchedBinomialSampler().counts(batch, ell, make_rng(12))
        literal = BatchedIndexSampler().counts(batch, ell, make_rng(13))
        assert fast.var() == pytest.approx(literal.var(), rel=0.2)

    def test_histograms_agree(self):
        batch = BatchedPopulation.from_population(population_with_fraction(5000, 0.5), 2)
        ell = 8
        fast = BatchedBinomialSampler().counts(batch, ell, make_rng(14)).ravel()
        literal = BatchedIndexSampler().counts(batch, ell, make_rng(15)).ravel()
        hist_fast = np.bincount(fast, minlength=ell + 1) / fast.size
        hist_lit = np.bincount(literal, minlength=ell + 1) / literal.size
        assert np.abs(hist_fast - hist_lit).max() < 0.03

    def test_rows_sample_within_their_own_replica(self):
        # Row 0 all zeros but the source, row 1 all ones: counts never mix.
        pop = make_population(50, 1)
        batch = BatchedPopulation.from_population(pop, 2)
        batch.adversarial_opinions(np.stack([np.zeros(50), np.ones(50)]).astype(np.uint8))
        counts = BatchedIndexSampler().counts(batch, 6, make_rng(16))
        assert (counts[1] == 6).all()
        assert counts[0].max() <= 6 and counts[0].mean() < 1

    def test_exclude_self_never_draws_self(self):
        # Replica r holds a single 1, at agent r + 1 (the source prefers 0):
        # with ℓ = 200 ≫ n every other agent sees it, but agent r + 1 itself
        # must never count its own opinion.
        n, replicas, ell = 20, 5, 200
        batch = BatchedPopulation.from_population(make_population(n, 0), replicas)
        opinions = np.zeros((replicas, n), dtype=np.uint8)
        opinions[np.arange(replicas), np.arange(replicas) + 1] = 1
        batch.adversarial_opinions(opinions)
        sampler = BatchedIndexSampler(exclude_self=True)
        rng = make_rng(17)
        for _ in range(20):
            counts = sampler.counts(batch, ell, rng)
            assert (counts[np.arange(replicas), np.arange(replicas) + 1] == 0).all()
            others = counts.copy()
            others[np.arange(replicas), np.arange(replicas) + 1] = 1
            assert (others > 0).all()

    def test_exclude_self_per_agent_means(self):
        # Each of an agent's ℓ draws is uniform over the n - 1 others, so its
        # count is Binomial(ℓ, (k - o_i) / (n - 1)) with k the replica's
        # one-count and o_i the agent's own bit.
        n, ell, draws = 40, 50, 300
        pop = make_population(n, 1)
        batch = BatchedPopulation.from_population(pop, 3)
        opinions = np.zeros((3, n), dtype=np.uint8)
        opinions[0, :1] = 1  # the source alone
        opinions[1, ::2] = 1
        opinions[2, :-3] = 1
        batch.adversarial_opinions(opinions)
        sampler = BatchedIndexSampler(exclude_self=True)
        rng = make_rng(18)
        mean = np.mean([sampler.counts(batch, ell, rng) for _ in range(draws)], axis=0)
        k = batch.count_ones()[:, None]
        p = (k - batch.opinions) / (n - 1)
        se = np.sqrt(ell * p * (1 - p) / draws)
        assert (np.abs(mean - ell * p) <= 5 * se + 1e-12).all()

    def test_scalar_side_matches(self):
        for exclude_self in (False, True):
            scalar = BatchedIndexSampler(exclude_self=exclude_self).scalar()
            assert isinstance(scalar, IndexSampler)
            assert scalar.exclude_self is exclude_self

    def test_one_replica_consumes_the_scalar_stream(self):
        pop = population_with_fraction(300, 0.4)
        batch = BatchedPopulation.from_population(pop, 1)
        batched = BatchedIndexSampler(exclude_self=True).count_blocks(batch, 7, 2, make_rng(19))
        scalar = IndexSampler(exclude_self=True).count_blocks(pop, 7, 2, make_rng(19))
        assert np.array_equal(batched[:, 0, :], scalar)


class TestSparseDrawTier:
    """The geometric-gap generator must agree with the histogram tier (and
    the reference generator) in distribution across the extreme-x band."""

    def _draws(self, method, x_rows, ell=56, blocks=2, n=30000, seed=0):
        from repro.core.sampling import batched_binomial_counts

        return batched_binomial_counts(
            make_rng(seed), ell, np.asarray(x_rows, dtype=float), blocks, n, method
        )

    @pytest.mark.parametrize("x", [1 / 1000, 0.002, 0.0045, 1 - 1 / 1000, 1 - 0.0045])
    def test_matches_histogram_tier(self, x):
        from scipy import stats as scipy_stats

        ell = 56
        sparse = self._draws("sparse", [x], seed=1)[:, 0, :].ravel()
        hist = self._draws("histogram", [x], seed=2)[:, 0, :].ravel()
        assert sparse.min() >= 0 and sparse.max() <= ell
        assert scipy_stats.ks_2samp(sparse, hist).pvalue > 1e-4

    def test_moments_match_theory_deep_band(self):
        ell, n = 74, 200000
        for x in (1e-4, 5e-4, 1 - 1e-4):
            counts = self._draws("sparse", [x], ell=ell, blocks=1, n=n, seed=3)[0, 0]
            assert counts.mean() == pytest.approx(ell * x, rel=0.1, abs=5e-3)
            assert counts.var() == pytest.approx(ell * x * (1 - x), rel=0.15, abs=5e-3)

    def test_single_q_and_heterogeneous_paths_agree(self):
        from scipy import stats as scipy_stats

        # identical rows ride the concatenated-line path, distinct rows the
        # per-lane path; both must produce the same law for the same x
        x = 0.003
        single = self._draws("sparse", [x, x, x], seed=4)
        hetero = self._draws("sparse", [x, 0.001, 0.004], seed=5)
        assert (
            scipy_stats.ks_2samp(single[:, 0, :].ravel(), hetero[:, 0, :].ravel()).pvalue
            > 1e-4
        )

    def test_mirrored_rows_share_single_q_path(self):
        # x and 1-x have equal q; the mixed batch must mirror counts per row
        ell = 40
        out = self._draws("sparse", [0.002, 0.998], ell=ell, seed=6)
        low, high = out[:, 0, :], out[:, 1, :]
        assert low.mean() == pytest.approx(ell - high.mean(), abs=0.05)

    def test_consensus_rows_are_deterministic_fills(self):
        ell = 10
        out = self._draws("sparse", [0.0, 1.0], ell=ell, n=500, seed=7)
        assert (out[:, 0, :] == 0).all()
        assert (out[:, 1, :] == ell).all()

    def test_mid_range_forced_sparse_still_exact(self):
        from scipy import stats as scipy_stats

        # far outside the auto band the generator degrades to dense but must
        # stay exact — forcing guards against silent tier-boundary bugs
        sparse = self._draws("sparse", [0.5], ell=20, blocks=1, seed=8)[0, 0]
        ref = self._draws("binomial", [0.5], ell=20, blocks=1, seed=9)[0, 0]
        assert scipy_stats.ks_2samp(sparse, ref).pvalue > 1e-4

    def test_ell_one_and_tiny_n(self):
        out = self._draws("sparse", [0.01, 0.99], ell=1, n=7, seed=10)
        assert set(np.unique(out)) <= {0, 1}

    def test_auto_routes_sparse_band(self):
        from scipy import stats as scipy_stats

        # an auto call keyed on a deep-band fraction must match the reference
        auto = self._draws("auto", [0.001], seed=11)[:, 0, :].ravel()
        ref = self._draws("binomial", [0.001], seed=12)[:, 0, :].ravel()
        assert scipy_stats.ks_2samp(auto, ref).pvalue > 1e-4

    def test_sampler_accepts_sparse_method(self):
        from repro.core.sampling import BatchedBinomialSampler

        assert BatchedBinomialSampler("sparse").method == "sparse"
        with pytest.raises(ValueError):
            BatchedBinomialSampler("gaps")

    def test_denormal_x_terminates_and_returns_modal_fill(self):
        # Regression: x tiny enough that ln(U)/ln(1-q) overflows float64 used
        # to saturate the int64 cast negative and spin the placement loop
        # forever; the gap clamp keeps it finite. P(nonzero) ~ 1e-309 per
        # element, so the draw is the modal fill for any practical size.
        for xs in ([1e-310], [1e-310, 2e-310], [1 - 1e-16]):
            out = self._draws("sparse", xs, ell=10, blocks=1, n=200, seed=13)
            assert out.shape == (1, len(xs), 200)
