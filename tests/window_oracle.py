"""Frozen per-slot window reads: `theorem2_bound` and OLP's `_window_power`
as they were before `theorem2_bound` read each window through
`power.levels` and `_window_power` through `power.window`.

Each reads P(t) with one `power.at(t)` call per slot of the window, and
`window_power` walks the whole window again for a negative power.  The
bodies are copied unchanged; `evcs.augmentation.theorem2_bound` and
`evcs.schedulers._window_power` must return the same floats and raise the
same errors.
"""
from __future__ import annotations

import math

from evcs.model import ContractError, Instance


def theorem2_bound(instance: Instance) -> float:
    worst = -math.inf
    for s in instance.sessions:
        window = range(max(s.arrival, 0), min(s.departure, instance.horizon))
        powers = [instance.power.at(t) for t in window]
        if not powers:
            raise ContractError(f"theorem 2 needs a sojourn inside the horizon, "
                                f"and session {s.id} has none")
        if min(powers) <= 0.0:
            raise ContractError(f"theorem 2 needs positive power, and the sojourn of "
                                f"session {s.id} sees P = {min(powers)}")
        spread = max(powers) / min(powers)
        rate_share = max(s.max_rate / p for p in powers)
        worst = max(worst, spread - rate_share)
    return worst


def window_power(instance: Instance, t: int, end: int) -> list[float]:
    powers = [instance.power.at(tau) for tau in range(t, end)]
    for tau, p in enumerate(powers, t):
        if p < 0:
            raise ContractError(f"OLP: negative station power P({tau}) = {p} at slot {tau}")
    return powers
