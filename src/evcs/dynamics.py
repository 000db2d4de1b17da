"""Laxity, per-slot state evolution, and energy accounting over a finished run."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ChargingSession, ContractError, Instance

#: relative tolerance separating contract violations from float noise
RATE_TOL = 1e-9

#: a rate at or below this magnitude counts as off when switches are counted
ZERO_EPS = 1e-12


def laxity(session: ChargingSession, t: int, remaining_energy: float) -> float:
    """Slack before the session becomes unfinishable; +inf before arrival.

    Defined as the clamped time to departure minus the time needed to finish
    at the peak rate.  Always computed from this closed form, never by
    accumulating per-slot increments, so repeated stepping cannot drift.
    """
    if remaining_energy < 0:
        raise ContractError(f"negative remaining energy {remaining_energy}")
    if t < session.arrival:
        return math.inf
    return max(session.departure - t, 0) - remaining_energy / session.max_rate


@dataclass(frozen=True)
class SimState:
    """Simulation state at the start of slot t: remaining energy per session."""

    t: int
    remaining: dict[str, float]


def initial_state(instance: Instance) -> SimState:
    return SimState(0, {s.id: s.energy for s in instance.sessions})


def step(state: SimState, rates: dict[str, float], instance: Instance) -> SimState:
    """Apply one slot of charging and advance time; pure state-in/state-out."""
    t = state.t
    p_limit = instance.power.at(t) if t < instance.horizon else 0.0
    power_tol = RATE_TOL * max(1.0, p_limit)
    total = 0.0
    remaining = dict(state.remaining)
    active = {s.id: s for s in instance.active_at(t)}
    for sid, r in rates.items():
        if sid not in active:
            if r != 0.0:
                raise ContractError(f"rate {r} for inactive session {sid} at slot {t}")
            continue
        s = active[sid]
        cap = min(s.max_rate, remaining[sid])
        tol = RATE_TOL * max(1.0, s.max_rate)
        if not -tol <= r <= cap + tol:  # written so that NaN fails too
            raise ContractError(f"rate {r} outside [0, {cap}] for {sid} at slot {t}")
        r = min(max(r, 0.0), cap)
        remaining[sid] = max(remaining[sid] - r, 0.0)
        total += r
    if total > p_limit + power_tol:
        raise ContractError(f"total rate {total} exceeds power limit {p_limit} at slot {t}")
    return SimState(t + 1, remaining)


@dataclass(frozen=True)
class Schedule:
    """The full rate matrix of one run: per-session rate rows over [0, horizon)."""

    horizon: int
    rates: dict[str, tuple[float, ...]]

    def rate(self, sid: str, t: int) -> float:
        """r(t) of session `sid`; public API for library callers."""
        return self.rates[sid][t]

    def slot_total(self, t: int) -> float:
        return sum(row[t] for row in self.rates.values())

    def delivered(self, sid: str) -> float:
        return sum(self.rates[sid])

    def total_variation(self) -> float:
        """Sum over sessions of |r(t+1) - r(t)| between consecutive slots.

        A running sum in row order, as in `window_metrics`, so the two agree
        float for float; `sum()` of floats compensates from Python 3.12 on.
        """
        variation = 0
        for row in self.rates.values():
            for t in range(self.horizon - 1):
                variation += abs(row[t + 1] - row[t])
        return variation

    def switch_count(self) -> int:
        """How many times any session's rate crosses between zero and nonzero."""
        count = 0
        for row in self.rates.values():
            for t in range(self.horizon - 1):
                if (abs(row[t]) <= ZERO_EPS) != (abs(row[t + 1]) <= ZERO_EPS):
                    count += 1
        return count


def min_laxity(instance: Instance, schedule: Schedule) -> float:
    """Smallest laxity any session reaches over slots [0, horizon] of the schedule.

    Each session is followed from its arrival to its departure (or the
    horizon).  After the departure its laxity is -remaining/max_rate, which
    nonnegative rates can only raise, so the slots after it are skipped.
    """
    horizon, lowest = schedule.horizon, math.inf
    for s in instance.sessions:
        rem, row = s.energy, schedule.rates[s.id]
        end = min(s.departure, horizon)
        for t in range(max(s.arrival, 0), end + 1):  # plain compares: a hot loop
            lax = laxity(s, t, 0.0 if rem < 0.0 else rem)
            if lax < lowest:
                lowest = lax
            if t < end:
                rem -= row[t]
    return lowest


def window_metrics(instance: Instance, schedule: Schedule) -> tuple[float, int]:
    """(total variation, switch count) of a schedule that is zero outside every sojourn.

    Equal to `schedule.total_variation()` and `schedule.switch_count()` on such
    a schedule, float for float.  A term at slot t compares r(t) with r(t+1),
    so it can be nonzero only for t in [arrival - 1, departure - 1]; one pass
    per row covers that window (joined over sessions sharing an id) clipped to
    [0, horizon - 2].  Each skipped term is |0.0 - 0.0| = +0.0, which leaves
    the running sum, kept over the rows in schedule order, unchanged.  Its one
    caller is `simulate`, whose schedules qualify because `step` rejects any
    other nonzero rate.
    """
    horizon = schedule.horizon
    windows: dict[str, tuple[int, int]] = {}
    for s in instance.sessions:
        lo, hi = max(s.arrival - 1, 0), min(s.departure, horizon - 1)
        if s.id in windows:
            lo, hi = min(lo, windows[s.id][0]), max(hi, windows[s.id][1])
        windows[s.id] = lo, hi
    # the full sum has a float term whenever there is a row and a slot pair
    variation = 0.0 if schedule.rates and horizon > 1 else 0
    switches = 0
    for sid, row in schedule.rates.items():
        lo, hi = windows[sid]
        for a, b in zip(row[lo:hi], row[lo + 1:hi + 1]):
            variation += abs(b - a)
            if (abs(a) <= ZERO_EPS) != (abs(b) <= ZERO_EPS):
                switches += 1
    return variation, switches


@dataclass(frozen=True)
class RunVerdict:
    """Feasibility outcome of a schedule plus the scalar metrics of a run."""

    feasible: bool
    min_laxity: float
    unmet_energy: dict[str, float]
    oscillation: float
    switch_count: int
    violations: tuple = ()

