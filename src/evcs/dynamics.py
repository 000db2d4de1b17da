"""Laxity, per-slot state evolution, and energy accounting over a finished run."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice, pairwise, repeat

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
    """Simulation state at the start of slot t: remaining energy per session.

    Within one `simulate` run, `remaining` is the run's single dict, charged
    in place after each decision; a policy may read it only during its call.
    `memory` is what a policy keeps from one slot to the next of one run:
    OLP's plan, or after a fallback the sessions of the residual that could
    not ship, and nothing else.  `simulate` creates it once per run and
    `step` carries it on.  It takes no part in equality, and a state without
    it (None) gets every decision solved afresh.
    """

    t: int
    remaining: dict[str, float]
    memory: dict | None = field(default=None, compare=False, repr=False)


def initial_state(instance: Instance) -> SimState:
    return SimState(0, {s.id: s.energy for s in instance.sessions})


def _rate_limits(sessions) -> dict[str, tuple[float, float]]:
    """Each id's (peak rate, rate tolerance) for `_charge`; a repeated id
    takes the last of its sessions."""
    return {s.id: (s.max_rate, RATE_TOL * max(1.0, s.max_rate)) for s in sessions}


def _charge(remaining: dict[str, float], rates: dict[str, float],
            limits: dict[str, tuple[float, float]], t: int, p_limit: float) -> dict[str, float]:
    """Check one slot's rates and charge them into `remaining` in place.

    `limits` maps each active id to its `_rate_limits` entry.  Returns the
    applied (clamped) rate of each id whose rate is above 0.  The one rate
    check of the package: `step` and `simulate` both charge through it.
    """
    total, applied = 0.0, {}
    for sid, r in rates.items():
        limit = limits.get(sid)
        if limit is None:
            if r != 0.0:
                raise ContractError(f"rate {r} for inactive session {sid} at slot {t}")
            continue
        max_rate, tol = limit
        rem = remaining[sid]
        cap = rem if rem < max_rate else max_rate  # min(max_rate, rem), NaN alike
        if not -tol <= r <= cap + tol:  # written so that NaN fails too
            raise ContractError(f"rate {r} outside [0, {cap}] for {sid} at slot {t}")
        charged = 0.0 if r < 0.0 else r  # min(max(r, 0.0), cap), -0.0 kept as max keeps it
        if cap < charged:
            charged = cap
        if r > 0.0:
            applied[sid] = charged
        rem -= charged
        remaining[sid] = 0.0 if rem < 0.0 else rem  # max(rem, 0.0), NaN kept
        total += charged
    if not total <= p_limit + RATE_TOL * max(1.0, p_limit):  # a NaN power fails too
        raise ContractError(f"total rate {total} exceeds power limit {p_limit} at slot {t}")
    return applied


def step(state: SimState, rates: dict[str, float], instance: Instance) -> SimState:
    """Apply one slot of charging and advance time; pure state-in/state-out.

    `state` is left as it is: the rates are checked and charged into a copy
    of its `remaining` by `_charge`, the kernel with which `simulate`
    charges its run's single dict in place after each decision.  The run
    memory (OLP's plan or failed residual, nothing else) is carried on as it is.
    """
    t = state.t
    p_limit = instance.power.at(t) if t < instance.horizon else 0.0
    remaining = dict(state.remaining)
    _charge(remaining, rates, _rate_limits(instance.active_at(t)), t, p_limit)
    return SimState(t + 1, remaining, state.memory)


@dataclass(frozen=True)
class Schedule:
    """The rate matrix of one run, one window per session.

    `rates[sid]` holds r(t) from slot `starts.get(sid, 0)` on, and every rate
    outside that window is 0.0.  A window lies inside [0, horizon), so
    `Schedule(horizon, {sid: dense_row})` with horizon-long rows is still a
    dense schedule.
    """

    horizon: int
    rates: dict[str, tuple[float, ...]]
    starts: dict[str, int] = field(default_factory=dict)

    def rate(self, sid: str, t: int) -> float:
        """r(t) of session `sid`; public API for library callers."""
        return next(self._rates_from(sid, t))

    def _rates_from(self, sid: str, t: int):
        """r(t), r(t + 1), ... of session `sid` without end: zeros outside the window."""
        row, start = self.rates[sid], self.starts.get(sid, 0)
        return chain(repeat(0.0, start - t), islice(row, max(t - start, 0), None), repeat(0.0))

    def slot_total(self, t: int) -> float:
        """The rates at slot t, summed in row order as `validate_schedule` sums them."""
        total = 0
        for sid in self.rates:
            total += self.rate(sid, t)
        return total

    def delivered(self, sid: str) -> float:
        return sum(self.rates[sid], 0.0 if self.horizon > 0 else 0)  # as over a dense row

    def total_variation(self) -> float:
        """Sum over sessions of |r(t+1) - r(t)| between consecutive slots."""
        return self._metrics()[0]

    def switch_count(self) -> int:
        """How many times any session's rate crosses between zero and nonzero."""
        return self._metrics()[1]

    def _metrics(self) -> tuple[float, int]:
        """(total variation, switch count) in one walk over each window and its
        bordering zeros in [0, horizon); any other slot pair adds +0.0 and no
        switch.  A running sum in row order: `sum()` compensates from 3.12 on.
        `evcs run` prints both, so it takes them from this one walk.
        """
        horizon, switches = self.horizon, 0
        variation = 0.0 if self.rates and horizon > 1 else 0
        for sid, row in self.rates.items():
            start = self.starts.get(sid, 0)
            padded = chain((0.0,) if start > 0 else (), row,
                           (0.0,) if start + len(row) < horizon else ())
            for a, b in pairwise(padded):
                variation += abs(b - a)
                if (abs(a) <= ZERO_EPS) != (abs(b) <= ZERO_EPS):
                    switches += 1
        return variation, switches


def min_laxity(instance: Instance, schedule: Schedule) -> float:
    """Smallest laxity any session reaches over slots [0, horizon] of the schedule.

    Each session is followed from its arrival to its departure (or the
    horizon).  After the departure its laxity is -remaining/max_rate, which
    nonnegative rates can only raise, so the slots after it are skipped.
    """
    horizon, lowest = schedule.horizon, math.inf
    for s in instance.sessions:
        rem, lo = s.energy, max(s.arrival, 0)
        departure, max_rate = s.departure, s.max_rate
        for t, r in zip(range(lo, min(departure, horizon) + 1), schedule._rates_from(s.id, lo)):
            # `laxity`'s closed form, as arrival <= t <= departure; plain compares: a hot loop
            lax = departure - t - (0.0 if rem < 0.0 else rem) / max_rate
            if lax < lowest:
                lowest = lax
            rem -= r  # after the last slot, rem is not read again
    return lowest


@dataclass(frozen=True)
class RunVerdict:
    """The outcome of a run or of a schedule check; the run metrics are functions
    of the schedule: `min_laxity`, `Schedule.total_variation` and `.switch_count`."""

    feasible: bool
    unmet_energy: dict[str, float]
    violations: tuple = ()

