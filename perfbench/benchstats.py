"""The benchmark's own arithmetic: medians, tails, spreads and the pair-win rule.

Kept free of any ``repro`` import so it can be tested and reused by the
compare mode without building the program.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: Share of pairs the change must win before a gain may be claimed.
PAIR_WIN_SHARE = 0.9

#: Fewest pairs a verdict may rest on.
MIN_PAIRS = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``. With ``N`` samples sorted ascending, the
    value of rank ``N - 10`` (1-based) has exactly ten samples above it, and
    its percentile is ``100 * (N - 10) / N``. Fewer than eleven samples leave
    no such percentile, which is an error rather than a silent maximum.
    """
    n = len(samples)
    rank = n - TAIL_BEYOND
    if rank < 1:
        raise ValueError(
            f"a tail needs at least {TAIL_BEYOND + 1} samples, got {n}"
        )
    ordered = sorted(samples)
    return ordered[rank - 1], 100.0 * rank / n


def median(samples: list[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(samples) < 2:
        value = median(samples)
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def spread(samples: list[float]) -> float:
    """Interquartile distance as a share of the median (``inf`` at median 0)."""
    q1, q2, q3 = quartiles(samples)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; nothing attempted is an error."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must be in [0, {attempted}], got {failed}")
    return failed / attempted


def improvement(parent: float, change: float, better: str) -> float:
    """Signed amount by which ``change`` beats ``parent`` (positive = better)."""
    if better == "lower":
        return parent - change
    if better == "higher":
        return change - parent
    raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")


def pair_verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> dict:
    """Judge one metric over paired runs (choosing-metrics section 8).

    ``parent[i]`` and ``change[i]`` form pair ``i``; at least ``MIN_PAIRS``
    pairs are needed. The verdict is:

    * ``"gain"`` — the change wins at least nine tenths of all pairs (ties
      count for neither side) and its median beats the parent's by more than
      the parent's interquartile distance;
    * ``"unresolved"`` — either side's spread is wider than ``bound`` and
      not every change run beats every parent run;
    * ``"better in every run"`` — spreads are wider than ``bound``, but every
      change run beats every parent run: no regression, yet no gain claimed;
    * ``"regression"`` — the change's median is worse than the parent's by
      more than ``bound`` times the parent's median;
    * ``"unchanged"`` — otherwise.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change need the same number of runs")
    if len(parent) < MIN_PAIRS:
        raise ValueError(f"a verdict needs at least {MIN_PAIRS} pairs, got {len(parent)}")
    wins = sum(1 for p, c in zip(parent, change) if improvement(p, c, better) > 0)
    losses = sum(1 for p, c in zip(parent, change) if improvement(p, c, better) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gained = improvement(p_med, c_med, better)
    all_better = all(
        improvement(p, c, better) > 0 for p in parent for c in change
    )
    widest = max(spread(parent), spread(change))
    if wins >= PAIR_WIN_SHARE * len(parent) and gained > p_q3 - p_q1:
        verdict = "gain"
    elif widest > bound:
        verdict = "better in every run" if all_better else "unresolved"
    elif -gained > bound * abs(p_med):
        verdict = "regression"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict,
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "spread": widest,
        "bound": bound,
    }
