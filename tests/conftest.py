"""Shared fixtures and deterministic helpers for the test suite."""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest

from repro.core.population import make_population
from repro.core.protocol import Protocol
from repro.core.rng import make_rng
from repro.core.sampling import BinomialCountSampler, Sampler
from repro.initializers.standard import Initializer


class ScriptedCountSampler(Sampler):
    """Sampler returning pre-scripted per-agent counts.

    Each call to :meth:`counts` (or each block of :meth:`count_blocks`) pops
    the next scripted vector. Lets protocol-semantics tests drive FET's
    comparisons deterministically.
    """

    def __init__(self, scripted: list[np.ndarray]) -> None:
        self.scripted = [np.asarray(v, dtype=np.int64) for v in scripted]
        self.cursor = 0

    def counts(self, population, ell, rng):
        if self.cursor >= len(self.scripted):
            raise AssertionError("scripted sampler exhausted")
        out = self.scripted[self.cursor]
        self.cursor += 1
        if out.shape != (population.n,):
            raise AssertionError("scripted vector has wrong shape")
        return out


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def small_population():
    return make_population(50, correct_opinion=1)


def scripted_sampler(*vectors) -> ScriptedCountSampler:
    return ScriptedCountSampler(list(vectors))


def scalar_reference(factory):
    """Wrap a protocol factory so every built protocol steps through the
    generic per-replica ``Protocol.step_batch`` fallback — the scalar rule,
    one replica at a time — and draws its clean state through the generic
    ``Protocol.init_state_batch`` (stacked scalar ``init_state`` draws). The
    reference side of every vectorized-vs-scalar equivalence test."""

    def build():
        protocol = factory()
        protocol.step_batch = functools.partial(Protocol.step_batch, protocol)
        protocol.init_state_batch = functools.partial(Protocol.init_state_batch, protocol)
        return protocol

    return build


def scalar_start(initializer):
    """A copy of ``initializer`` that installs every replica's start through
    the generic per-replica ``Initializer.apply_batch`` fallback — the scalar
    ``apply``, one row at a time."""
    reference = copy.copy(initializer)
    reference.apply_batch = functools.partial(Initializer.apply_batch, reference)
    return reference


def run_scalar_reference(factory, n, initializer, **kwargs):
    """``run_trials`` on the scalar reference: the scalar rule and the scalar
    starts (``init_state`` + ``Initializer.apply``) through the generic batch
    fallbacks. Compare against the default run, which builds the whole batch
    with the vectorized ``init_state_batch`` and ``apply_batch``."""
    from repro.experiments.harness import run_trials

    return run_trials(
        scalar_reference(factory), n, scalar_start(initializer), engine="batched", **kwargs
    )


def patch_scalar_reference(patch, initializer_cls) -> None:
    """Put sweep-level FET cells on the scalar reference: FET's scalar rule
    and clean state through the generic ``Protocol`` batch fallbacks, and the
    scalar start of ``initializer_cls`` through the generic
    ``Initializer.apply_batch`` in place of its vectorized override."""
    from repro.protocols.fet import FETProtocol

    patch.setattr(FETProtocol, "step_batch", Protocol.step_batch)
    patch.setattr(FETProtocol, "init_state_batch", Protocol.init_state_batch)
    patch.setattr(initializer_cls, "apply_batch", Initializer.apply_batch)


def step_scalar(protocol, population, state, rng, sampler=None) -> None:
    """One synchronous round of the scalar rule: every agent steps at once,
    then the population installs the new opinions and re-pins its sources."""
    sampler = sampler if sampler is not None else BinomialCountSampler()
    population.set_opinions(protocol.step(population, state, sampler, rng))


def pytest_configure(config):
    # The chaos/watchdog tests mark themselves with per-test timeouts that
    # pytest-timeout enforces in CI; locally (plugin absent) the mark must
    # still be registered so it does not warn.
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test wall-clock budget (enforced when the "
        "pytest-timeout plugin is installed, as in CI)",
    )
    config.addinivalue_line(
        "markers",
        "metrics_smoke: end-to-end telemetry smoke (CI runs these "
        "separately with `pytest -m metrics_smoke` after the demo sweep)",
    )
