"""Empirical domain-transition statistics — the data behind Figure 1b.

Figure 1b sketches the proof of Theorem 1 as a transition diagram between
domains, annotated with dwell-time bounds (Lemmas 1–5). This experiment runs
many FET trajectories from adversarial starts, classifies every consecutive
pair, and aggregates (a) how long the chain dwells in each domain family and
(b) where it goes when it leaves — the measured counterpart of the diagram.

Trajectories come from one trace-recorded lock-step run per initializer.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..initializers.standard import Initializer
from ..protocols.fet import FETProtocol
from .trajectories import AnnotatedRun, run_annotated_batch

__all__ = ["TransitionSummary", "collect_transitions"]


@dataclass
class TransitionSummary:
    """Aggregated dwell times and inter-domain transition counts.

    Keys are domain *family* names ('Green', 'Purple', 'Red', 'Cyan',
    'Yellow', 'None'); side-0/1 variants are merged because the diagram of
    Figure 1b treats them symmetrically (the source is w.l.o.g. 1, so the
    chain's consensus target lives on side 1).
    """

    dwell_times: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    transitions: Counter = field(default_factory=Counter)  # (from, to) -> count
    runs: int = 0
    converged_runs: int = 0

    def transition_probability(self, source: str, target: str) -> float:
        """Empirical P(next family = target | leaving family = source)."""
        total = sum(count for (src, _), count in self.transitions.items() if src == source)
        if total == 0:
            return float("nan")
        return self.transitions[(source, target)] / total

    def max_dwell(self, family: str) -> int:
        times = self.dwell_times.get(family, [])
        return max(times) if times else 0

    def mean_dwell(self, family: str) -> float:
        times = self.dwell_times.get(family, [])
        return float(np.mean(times)) if times else float("nan")

    def families(self) -> list[str]:
        seen = set(self.dwell_times)
        for src, dst in self.transitions:
            seen.add(src)
            seen.add(dst)
        return sorted(seen)


def _accumulate(summary: TransitionSummary, annotated: AnnotatedRun) -> None:
    """Fold one annotated trajectory into the running aggregate."""
    summary.runs += 1
    if annotated.result.converged:
        summary.converged_runs += 1
    segments = annotated.dwell_segments()
    for domain, dwell in segments:
        summary.dwell_times[domain.family].append(dwell)
    for (src, _), (dst, _) in zip(segments, segments[1:]):
        summary.transitions[(src.family, dst.family)] += 1


def collect_transitions(
    n: int,
    ell: int,
    initializers: list[Initializer],
    *,
    trials_per_init: int,
    max_rounds: int,
    seed: int,
    delta: float = 0.05,
) -> TransitionSummary:
    """Run FET from each initializer and aggregate domain-transition data.

    Each initializer's trials are recorded in one trace-recorded batched run.
    """
    summary = TransitionSummary()
    if trials_per_init == 0:
        return summary
    for init_index, initializer in enumerate(initializers):
        annotated_runs = run_annotated_batch(
            FETProtocol(ell),
            n,
            initializer,
            trials_per_init,
            max_rounds=max_rounds,
            seed=seed + init_index,
            delta=delta,
        )
        for annotated in annotated_runs:
            _accumulate(summary, annotated)
    return summary
