#!/usr/bin/env python3
"""The paper's motivating story: animals choosing a foraging side.

A group of animals forages in an area whose *eastern* side is better (more
food, fewer predators). A single knowledgeable animal always forages east.
The others cannot tell who is knowledgeable; each of them can only scan the
area — observe where a few random group members are — and move. Their scan is
passive communication: the only information an animal reveals is its current
side.

We encode east = opinion 1 and run three mornings:

1. a naive group that copies the majority of its scan (sample-majority),
2. a trend-following group running FET,
3. a mid-run *environment change*: the good side flips to west, modelled by
   replacing the knowledgeable animal's preference, and the FET group adapts.

Run:  python examples/foraging_scenario.py
"""

from __future__ import annotations

import numpy as np

from repro import FETProtocol, MajoritySamplingProtocol, ell_for, make_population, run_protocol
from repro.core import make_rng
from repro.initializers import AllWrong
from repro.viz import render_trajectory

N_ANIMALS = 2000
EAST, WEST = 1, 0


def morning(title: str, protocol, rounds: int, seed: int):
    rng = make_rng(seed)
    group = make_population(N_ANIMALS, correct_opinion=EAST)
    state = protocol.init_state(N_ANIMALS, rng)
    AllWrong()(group, protocol, state, rng)  # everyone starts on the west side

    # run_protocol leaves the group's final sides and memories in place,
    # so a later morning can pick up where this one stopped.
    result = run_protocol(protocol, group, rounds, rng=rng, state=state)
    east_share = group.opinions.mean()
    print(f"\n--- {title} ---")
    print(f"after {len(result.trajectory) - 1} scans: {east_share:.1%} forage east "
          f"({'converged' if result.converged else 'not converged'})")
    return group, state, rng, result


def main() -> None:
    print(f"{N_ANIMALS} animals; the east side is preferable; one animal knows it.")

    # Naive strategy: follow the majority of your scan. The wrong-side
    # majority reinforces itself; the knowledgeable animal is drowned out.
    morning(
        "naive group (copy the scan majority)",
        MajoritySamplingProtocol(ell_for(N_ANIMALS)),
        rounds=300,
        seed=1,
    )

    # Trend followers: compare today's scan with yesterday's and move with
    # the emerging trend (FET). The knowledgeable animal seeds a drift that
    # the trend rule amplifies.
    fet = FETProtocol(ell_for(N_ANIMALS))
    group, state, rng, result = morning("trend followers (FET)", fet, rounds=2000, seed=2)
    print(render_trajectory(result.trajectory, height=12))

    # The environment changes: now the WEST side is better. The knowledgeable
    # animal switches sides; nobody announces anything — self-stabilization
    # means the group re-converges from its current (now wrong) consensus.
    print("\n--- the environment changes: west becomes preferable ---")
    group.source_preferences[group.source_mask] = WEST
    group.correct_opinion = WEST
    group.pin_sources()
    adapt = run_protocol(fet, group, 2000, rng=rng, state=state)
    west_share = 1 - group.opinions.mean()
    print(f"after {len(adapt.trajectory) - 1} more scans: {west_share:.1%} forage west "
          f"({'re-converged' if adapt.converged else 'not converged'})")
    print(render_trajectory(adapt.trajectory, height=12))
    print("\n(The re-convergence IS the self-stabilization property: the old")
    print(" consensus plus stale counters are just another adversarial start.)")


if __name__ == "__main__":
    main()
