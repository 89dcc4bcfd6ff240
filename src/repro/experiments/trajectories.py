"""Trajectory recording with domain annotation.

Connects the simulator to the analysis layer: runs a protocol and labels
every consecutive-fraction pair ``(x_t, x_{t+1})`` with its Figure 1a domain.
Used by the Figure 1b experiment and by the trajectory examples.

:func:`run_annotated_batch` runs R independent trials as one batched run
with a :class:`~repro.trace.FullTrace` recorder; the recorded ``(R, T)``
matrix is split back into per-trial trajectories and each is annotated. A
single annotated trial is ``run_annotated_batch(..., 1)[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.domains import Domain, DomainPartition
from ..config import RunSpec
from ..core.protocol import Protocol
from ..core.records import RunResult
from ..initializers.standard import Initializer
from ..trace import FullTrace
from .harness import make_batched_engine

__all__ = ["AnnotatedRun", "run_annotated_batch"]


@dataclass
class AnnotatedRun:
    """A run result plus the domain label of every trajectory pair."""

    result: RunResult
    domains: list[Domain]

    def domain_families(self) -> list[str]:
        return [d.family for d in self.domains]

    def dwell_segments(self) -> list[tuple[Domain, int]]:
        """Run-length encode the domain sequence: [(domain, rounds), …]."""
        segments: list[tuple[Domain, int]] = []
        for label in self.domains:
            if segments and segments[-1][0] is label:
                segments[-1] = (label, segments[-1][1] + 1)
            else:
                segments.append((label, 1))
        return segments


def run_annotated_batch(
    protocol: Protocol,
    n: int,
    initializer: Initializer,
    replicas: int,
    *,
    max_rounds: int,
    seed: int,
    correct_opinion: int = 1,
    delta: float = 0.05,
    stability_rounds: int = 2,
) -> list[AnnotatedRun]:
    """Run ``replicas`` trials batched and annotate each trajectory.

    One lock-step :class:`~repro.core.batch.BatchedEngine` run with a
    full-trace recorder; each recorded per-replica trajectory is trimmed to
    the rounds that replica executed and every ``(x_t, x_{t+1})`` pair is
    classified into its Figure 1a domain.
    """
    spec = RunSpec(
        protocol=None,  # live instance supplied below
        n=n,
        trials=replicas,
        max_rounds=max_rounds,
        seed=seed,
        correct_opinion=correct_opinion,
        stability_rounds=stability_rounds,
    )
    recorder = FullTrace()
    engine = make_batched_engine(spec, protocol=protocol, initializer=initializer)
    outcome = engine.run(max_rounds, stability_rounds=stability_rounds, recorder=recorder)
    partition = DomainPartition(n=n, delta=delta)
    return [
        AnnotatedRun(result=result, domains=partition.classify_pairs(result.pairs()))
        for result in recorder.trace().to_run_results(outcome)
    ]
