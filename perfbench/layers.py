"""Timing wrappers the traced runs put around calls into the program's layers.

The program is not edited: each wrapper is a shallow copy of a live component
(sampler, protocol, initializer) whose class is swapped for a subclass that
times one method, or a :class:`~repro.sweep.store.ResultsStore` subclass
passed to ``run_sweep`` in place of a plain store. Every timing lands in a
:class:`LayerClock` that the workload reads after its window.
"""

from __future__ import annotations

import copy
import time
from collections import defaultdict
from typing import Any, Callable

from repro.sweep.store import ResultsStore


class LayerClock:
    """Seconds, calls and work counts accumulated per layer name."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)

    def add(self, layer: str, seconds: float) -> None:
        self.seconds[layer] += seconds
        self.calls[layer] += 1


def timed(
    component: Any,
    method: str,
    layer: str,
    clock: LayerClock,
    observe: Callable[[LayerClock, tuple, Any], None] | None = None,
) -> Any:
    """A copy of ``component`` whose ``method`` adds its wall time to ``layer``.

    The copy keeps the original's class as a base, so ``isinstance`` checks
    and every other attribute behave as before. ``observe(clock, args,
    result)`` may record work counts from the call's arguments and result.
    """
    base = type(component)
    inner = getattr(base, method)

    def wrapper(self, *args, **kwargs):
        start = time.perf_counter()
        result = inner(self, *args, **kwargs)
        clock.add(layer, time.perf_counter() - start)
        if observe is not None:
            observe(clock, args, result)
        return result

    clone = copy.copy(component)
    clone.__class__ = type(f"Timed{base.__name__}", (base,), {method: wrapper})
    return clone


class TimedStore(ResultsStore):
    """A results store that times its index load, lookups and appends."""

    def __init__(self, path, *, clock: LayerClock, durable: bool = False) -> None:
        self.clock = clock
        start = time.perf_counter()
        super().__init__(path, durable=durable)
        clock.add("store.load", time.perf_counter() - start)

    def get(self, key: str) -> dict | None:
        start = time.perf_counter()
        record = super().get(key)
        self.clock.add("store.get", time.perf_counter() - start)
        return record

    def put(self, key: str, record: dict) -> None:
        start = time.perf_counter()
        super().put(key, record)
        self.clock.add("store.put", time.perf_counter() - start)
