"""Crafted adversarial configurations.

These target the structurally hard starting points identified by the paper's
analysis, plus the impossibility construction of Section 1.2. All of them
control both opinions and internal protocol state (the full power the
self-stabilizing adversary has).

Like the standard classes, the crafted constructions override
``apply_batch``: one vectorized call installs every replica of a
:class:`~repro.core.batch.BatchedPopulation`, so adversarial sweep cells
run the batched fast path end to end instead of the generic per-replica
fallback.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import BatchedPopulation
from ..core.population import PopulationState
from ..core.protocol import Protocol, ProtocolState
from .standard import Initializer

__all__ = [
    "TwoRoundTarget",
    "ZeroSpeedCenter",
    "FrozenUnanimity",
    "PoisonedCounters",
]


def _set_fraction(population: PopulationState, x: float, rng: np.random.Generator) -> None:
    n = population.n
    ones = int(round(x * n))
    opinions = np.zeros(n, dtype=np.uint8)
    if ones > 0:
        opinions[rng.choice(n, size=ones, replace=False)] = 1
    population.adversarial_opinions(opinions)


def _set_fraction_batch(batch: BatchedPopulation, x: float, rng: np.random.Generator) -> None:
    ones = int(round(x * batch.n))
    row = np.zeros(batch.n, dtype=np.uint8)
    row[:ones] = 1
    # A uniform within-row shuffle of a fixed-weight row matches the scalar
    # rule's "ones at uniformly random positions", independently per replica.
    opinions = np.tile(row, (batch.replicas, 1))
    rng.permuted(opinions, axis=1, out=opinions)
    batch.adversarial_opinions(opinions, validate=False)


class TwoRoundTarget(Initializer):
    """Start the chain near a chosen grid point ``(x_prev, x_now)``.

    The paper's Markov chain lives on pairs of consecutive fractions; this
    initializer installs opinions with fraction ``x_now`` and counter state
    distributed as if the previous round's fraction had been ``x_prev``
    (``prev_count ~ Binomial(ℓ, x_prev)`` for the trend protocols). It lets
    experiments drop the chain into any domain of Figure 1a directly.
    """

    def __init__(self, x_prev: float, x_now: float) -> None:
        for label, v in (("x_prev", x_prev), ("x_now", x_now)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {v}")
        self.x_prev = x_prev
        self.x_now = x_now
        self.name = f"two-round(x_prev={x_prev}, x_now={x_now})"

    def apply(self, population, protocol, state, rng) -> None:
        _set_fraction(population, self.x_now, rng)
        if "prev_count" in state:
            ell = getattr(protocol, "ell", None)
            if ell is None:
                raise ValueError("TwoRoundTarget needs a protocol exposing .ell")
            state["prev_count"] = rng.binomial(ell, self.x_prev, size=population.n).astype(np.int64)
        else:
            state.update(protocol.randomize_state(population.n, rng))

    def apply_batch(self, batch, protocol, states, rng) -> None:
        _set_fraction_batch(batch, self.x_now, rng)
        if "prev_count" in states:
            ell = getattr(protocol, "ell", None)
            if ell is None:
                raise ValueError("TwoRoundTarget needs a protocol exposing .ell")
            states["prev_count"] = rng.binomial(
                ell, self.x_prev, size=(batch.replicas, batch.n)
            ).astype(np.int64)
        else:
            states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def spec(self) -> dict:
        return {"name": "two-round", "x_prev": self.x_prev, "x_now": self.x_now}


class ZeroSpeedCenter(Initializer):
    """The hardest region of Figure 1a: the Yellow centre with zero speed.

    Opinions split exactly in half and counters consistent with the previous
    round also having been at 1/2 — the chain starts at ``(1/2, 1/2)`` where
    the drift vanishes and only the noise analysis of Section 3 (areas A/B/C)
    gets the process moving. Dominates the paper's O(log^{5/2} n) bound.
    """

    name = "zero-speed-center"

    def __init__(self) -> None:
        self._inner = TwoRoundTarget(0.5, 0.5)

    def apply(self, population, protocol, state, rng) -> None:
        self._inner.apply(population, protocol, state, rng)

    def apply_batch(self, batch, protocol, states, rng) -> None:
        self._inner.apply_batch(batch, protocol, states, rng)

    def spec(self) -> dict:
        return {"name": "zero-speed-center"}


class PoisonedCounters(Initializer):
    """Wrong consensus with counters asserting a saturated history.

    All non-source opinions are wrong, and every trend counter is forced to
    the maximum ℓ, so in the first round every comparison reads "the trend is
    collapsing" regardless of what is sampled. Exercises the bounce-back of
    the Cyan analysis (Lemma 4) from the most misleading counter state.
    """

    name = "poisoned-counters"

    def apply(self, population, protocol, state, rng) -> None:
        wrong = 1 - population.correct_opinion
        opinions = np.full(population.n, wrong, dtype=np.uint8)
        population.adversarial_opinions(opinions)
        if "prev_count" in state:
            ell = getattr(protocol, "ell", 1)
            state["prev_count"] = np.full(population.n, ell, dtype=np.int64)
        else:
            state.update(protocol.randomize_state(population.n, rng))

    def apply_batch(self, batch, protocol, states, rng) -> None:
        wrong = 1 - batch.correct_opinion
        opinions = np.full((batch.replicas, batch.n), wrong, dtype=np.uint8)
        batch.adversarial_opinions(opinions, validate=False)
        if "prev_count" in states:
            ell = getattr(protocol, "ell", 1)
            states["prev_count"] = np.full((batch.replicas, batch.n), ell, dtype=np.int64)
        else:
            states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def spec(self) -> dict:
        return {"name": "poisoned-counters"}


class FrozenUnanimity(Initializer):
    """The impossibility construction of Section 1.2 (majority variant).

    Every agent — including sources whose *preference* is the minority bit —
    displays opinion ``opinion``, and every counter asserts a unanimous
    history (``prev_count = ℓ``). All observations are then unanimously
    ``opinion``; comparisons tie forever; no agent ever changes. This is the
    concrete witness of the indistinguishability argument: a passive protocol
    cannot escape, even though the majority of sources prefers the other bit.

    Must be used with ``pin_each_round=False`` populations (the majority
    variant); the initializer asserts this to prevent silent misuse.
    """

    def __init__(self, opinion: int = 1) -> None:
        if opinion not in (0, 1):
            raise ValueError(f"opinion must be 0 or 1, got {opinion}")
        self.opinion = opinion
        self.name = f"frozen-unanimity(opinion={opinion})"

    def apply(self, population, protocol, state, rng) -> None:
        if population.pin_each_round:
            raise ValueError(
                "FrozenUnanimity models the majority variant; build the population "
                "with make_majority_population (pin_each_round=False)"
            )
        opinions = np.full(population.n, self.opinion, dtype=np.uint8)
        population.adversarial_opinions(opinions, pin_sources=False)
        if "prev_count" in state:
            ell = getattr(protocol, "ell", 1)
            value = ell if self.opinion == 1 else 0
            state["prev_count"] = np.full(population.n, value, dtype=np.int64)
        else:
            state.update(protocol.randomize_state(population.n, rng))

    def apply_batch(self, batch, protocol, states, rng) -> None:
        if batch.pin_each_round:
            raise ValueError(
                "FrozenUnanimity models the majority variant; build the population "
                "with make_majority_population (pin_each_round=False)"
            )
        opinions = np.full((batch.replicas, batch.n), self.opinion, dtype=np.uint8)
        batch.adversarial_opinions(opinions, pin_sources=False, validate=False)
        if "prev_count" in states:
            ell = getattr(protocol, "ell", 1)
            value = ell if self.opinion == 1 else 0
            states["prev_count"] = np.full((batch.replicas, batch.n), value, dtype=np.int64)
        else:
            states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))
