"""Standard initial-configuration builders.

An initializer installs an initial opinion vector (and optionally internal
protocol state) into a population before a run. The self-stabilizing setting
means the adversary controls everything, so experiments sweep over these
classes; the crafted worst-case constructions live in
:mod:`repro.initializers.adversarial`.

Every initializer is a callable ``(population, protocol, state, rng) -> None``
mutating its arguments in place; :class:`Initializer` provides the naming
plumbing used by benchmark tables. Runs initialize whole batches through
:meth:`Initializer.apply_batch`: the shipped classes override it so one call
initializes every replica of a :class:`~repro.core.batch.BatchedPopulation`
with vectorized draws, and the base implementation is a generic per-replica
fallback over the scalar :meth:`Initializer.apply`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from typing import TYPE_CHECKING

from ..core.batch import BatchedPopulation
from ..core.population import PopulationState
from ..core.protocol import Protocol, ProtocolState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.counts import CountPopulation

__all__ = [
    "Initializer",
    "AllWrong",
    "AllCorrect",
    "BernoulliRandom",
    "ExactFraction",
    "RandomizeProtocolState",
]


class Initializer(ABC):
    """Base class: installs opinions and/or protocol state in place."""

    name: str = "initializer"
    #: ``True`` when :meth:`apply_counts` can express the initial distribution
    #: at the count level (exchangeable over non-source agents). Crafted
    #: per-agent constructions stay ``False`` and are rejected by the counts
    #: engine dispatch.
    supports_counts: bool = False

    @abstractmethod
    def apply(
        self,
        population: PopulationState,
        protocol: Protocol,
        state: ProtocolState,
        rng: np.random.Generator,
    ) -> None:
        """Mutate ``population`` / ``state`` to the initial configuration."""

    def apply_batch(
        self,
        batch: BatchedPopulation,
        protocol: Protocol,
        states: ProtocolState,
        rng: np.random.Generator,
    ) -> None:
        """Install the initial configuration into every replica at once.

        ``states`` holds the protocol's batched state (leading replica axis).
        The default implementation is a generic per-replica fallback that
        runs the scalar :meth:`apply` on each row in turn — correct for every
        initializer, but it keeps the per-replica Python cost. Vectorized
        overrides draw every replica at once.
        """
        opinions = np.empty_like(batch.opinions)
        for r in range(batch.replicas):
            replica = batch.replica(r)
            replica_state = {key: value[r] for key, value in states.items()}
            self.apply(replica, protocol, replica_state, rng)
            opinions[r] = replica.opinions
            # Scalar initializers rebind state entries (``state.update``);
            # fold the results back into the batched arrays.
            for key in states:
                states[key][r] = replica_state[key]
        # Each row is already the scalar rule's final configuration, sources
        # included, so the rows are installed as they are.
        batch.adversarial_opinions(opinions, pin_sources=False, validate=False)

    def apply_counts(
        self,
        population: "CountPopulation",
        protocol: Protocol,
        rng: np.random.Generator,
    ) -> None:
        """Install the initial state-count distribution into every replica.

        The counts analogue of :meth:`apply_batch`: draws each replica's
        ``(S,)`` state-count vector directly (multinomial over the joint
        opinion/internal-state distribution this initializer induces), with
        no per-agent arrays. Exact in distribution for exchangeable
        initializers; only available when ``supports_counts`` is ``True``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support count-level application "
            "(supports_counts=False)"
        )

    def spec(self) -> dict:
        """Declarative ``{"name": ..., params}`` form for sweep cells.

        The inverse of ``repro.sweep.registry.build_initializer``: it lets
        experiment drivers that accept initializer *objects* hand the same
        configuration to the declarative sweep orchestrator. Initializers
        without a registry entry raise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no declarative sweep spec; "
            "see repro.sweep.registry for the supported initializers"
        )

    def __call__(
        self,
        population: PopulationState,
        protocol: Protocol,
        state: ProtocolState,
        rng: np.random.Generator,
    ) -> None:
        self.apply(population, protocol, state, rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class AllWrong(Initializer):
    """Every non-source agent starts on the wrong opinion.

    The canonical dissemination start: the source's information has to spread
    against a unanimous wrong consensus. Corresponds to the Cyan region of the
    grid (``x_t ≈ x_{t+1} ≈ 0`` when correct = 1).
    """

    name = "all-wrong"
    supports_counts = True

    def apply(self, population, protocol, state, rng) -> None:
        wrong = 1 - population.correct_opinion
        opinions = np.full(population.n, wrong, dtype=np.uint8)
        population.adversarial_opinions(opinions, validate=False)
        state.update(protocol.randomize_state(population.n, rng))

    def apply_batch(self, batch, protocol, states, rng) -> None:
        wrong = 1 - batch.correct_opinion
        opinions = np.full((batch.replicas, batch.n), wrong, dtype=np.uint8)
        batch.adversarial_opinions(opinions, validate=False)
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def apply_counts(self, population, protocol, rng) -> None:
        # Every non-source shows the wrong opinion with adversarial-uniform
        # internal state: one multinomial over that opinion's state row.
        wrong = 1 - population.correct_opinion
        pmf = protocol.count_random_state_pmf()[wrong]
        population.set_counts(
            rng.multinomial(population.n_free, pmf, size=population.replicas)
        )

    def spec(self) -> dict:
        return {"name": "all-wrong"}


class AllCorrect(Initializer):
    """Every agent starts on the correct opinion (stability check)."""

    name = "all-correct"
    supports_counts = True

    def apply(self, population, protocol, state, rng) -> None:
        opinions = np.full(population.n, population.correct_opinion, dtype=np.uint8)
        population.adversarial_opinions(opinions, validate=False)
        state.update(protocol.randomize_state(population.n, rng))

    def apply_batch(self, batch, protocol, states, rng) -> None:
        opinions = np.full((batch.replicas, batch.n), batch.correct_opinion, dtype=np.uint8)
        batch.adversarial_opinions(opinions, validate=False)
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def apply_counts(self, population, protocol, rng) -> None:
        pmf = protocol.count_random_state_pmf()[population.correct_opinion]
        population.set_counts(
            rng.multinomial(population.n_free, pmf, size=population.replicas)
        )

    def spec(self) -> dict:
        return {"name": "all-correct"}


class BernoulliRandom(Initializer):
    """Each non-source opinion independently 1 with probability ``p``."""

    def __init__(self, p: float = 0.5) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self.name = f"bernoulli(p={p})"
        self.supports_counts = True

    def apply(self, population, protocol, state, rng) -> None:
        opinions = (rng.random(population.n) < self.p).astype(np.uint8)
        population.adversarial_opinions(opinions, validate=False)
        state.update(protocol.randomize_state(population.n, rng))

    def apply_batch(self, batch, protocol, states, rng) -> None:
        opinions = (rng.random((batch.replicas, batch.n)) < self.p).astype(np.uint8)
        batch.adversarial_opinions(opinions, validate=False)
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def apply_counts(self, population, protocol, rng) -> None:
        # Non-source opinions are iid Bernoulli(p); with adversarial internal
        # state the per-agent state distribution is the p-mixture of the two
        # opinion rows, so each replica is one multinomial draw from it.
        rows = protocol.count_random_state_pmf()
        pmf = self.p * rows[1] + (1.0 - self.p) * rows[0]
        population.set_counts(
            rng.multinomial(population.n_free, pmf, size=population.replicas)
        )

    def spec(self) -> dict:
        return {"name": "bernoulli", "p": self.p}


class ExactFraction(Initializer):
    """Exactly ``round(x * n)`` agents start with opinion 1, placed at random.

    Used to pin the chain's starting point ``x_0`` precisely, e.g. to start in
    a chosen grid domain.
    """

    def __init__(self, x: float) -> None:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"x must be in [0, 1], got {x}")
        self.x = x
        self.name = f"fraction(x={x})"
        self.supports_counts = True

    def apply(self, population, protocol, state, rng) -> None:
        n = population.n
        ones = int(round(self.x * n))
        opinions = np.zeros(n, dtype=np.uint8)
        chosen = rng.choice(n, size=ones, replace=False)
        opinions[chosen] = 1
        population.adversarial_opinions(opinions, validate=False)
        state.update(protocol.randomize_state(population.n, rng))

    def apply_batch(self, batch, protocol, states, rng) -> None:
        ones = int(round(self.x * batch.n))
        row = np.zeros(batch.n, dtype=np.uint8)
        row[:ones] = 1
        # A uniform within-row shuffle of a fixed-weight row is exactly the
        # scalar rule's "ones at uniformly random positions".
        opinions = np.tile(row, (batch.replicas, 1))
        rng.permuted(opinions, axis=1, out=opinions)
        batch.adversarial_opinions(opinions, validate=False)
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def apply_counts(self, population, protocol, rng) -> None:
        # The scalar rule places round(x·n) ones uniformly among all n agents
        # and then pins sources, so the number landing on non-sources is
        # hypergeometric; internal state is adversarial-uniform per opinion.
        ones = int(round(self.x * population.n))
        n_free = population.n_free
        replicas = population.replicas
        if ones <= 0:
            ones_free = np.zeros(replicas, dtype=np.int64)
        elif ones >= population.n:
            ones_free = np.full(replicas, n_free, dtype=np.int64)
        else:
            ones_free = rng.hypergeometric(
                n_free, population.num_sources, ones, size=replicas
            )
        rows = protocol.count_random_state_pmf()
        counts = rng.multinomial(ones_free, rows[1]) + rng.multinomial(
            n_free - ones_free, rows[0]
        )
        population.set_counts(counts)

    def spec(self) -> dict:
        return {"name": "fraction", "x": self.x}


class RandomizeProtocolState(Initializer):
    """Leave opinions untouched; randomize only the internal protocol state."""

    name = "randomize-state"
    supports_counts = True

    def apply(self, population, protocol, state, rng) -> None:
        state.update(protocol.randomize_state(population.n, rng))

    def apply_batch(self, batch, protocol, states, rng) -> None:
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def apply_counts(self, population, protocol, rng) -> None:
        # Opinions keep their current per-replica totals; internal state is
        # redrawn adversarial-uniform within each opinion class.
        rows = protocol.count_random_state_pmf()
        ones_mass = population.counts @ (population.display == 1).astype(np.int64)
        counts = rng.multinomial(ones_mass, rows[1]) + rng.multinomial(
            population.n_free - ones_mass, rows[0]
        )
        population.set_counts(counts)

    def spec(self) -> dict:
        return {"name": "randomize-state"}
