"""Laxity, per-slot state evolution, and energy accounting over a finished run."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, groupby, islice, repeat

from .model import ChargingSession, ContractError, Instance

#: relative tolerance separating contract violations from float noise
RATE_TOL = 1e-9

#: a rate at or below this magnitude counts as off when switches are counted
ZERO_EPS = 1e-12

#: remaining energy below this fraction of the original demand counts as done
FINISHED_EPS = 1e-12

#: relative tolerance on the energy-demand equality: a session whose
#: remaining energy is at most this fraction of its energy has its demand
DEMAND_TOL = 1e-6


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
    """Simulation state at the start of slot t: remaining energy per session id.

    It is the state of `schedulers.decide` and of `step`, for direct
    callers; a simulator run builds none and keeps its remaining
    energies by id number.  `memory` is what a policy keeps from one slot
    to the next of one run: OLP's plan, or after a fallback the sessions of
    the residual that could not ship, and nothing else.  The simulator
    creates it once per run and hands it to OLP's kernel, which follows the
    plan where it holds (see `simulator._run`); `step` carries it on.  It
    takes no part in equality, and a state without it (None) gets every
    decision solved afresh.
    """

    t: int
    remaining: dict[str, float]
    memory: dict | None = field(default=None, compare=False, repr=False)


def initial_state(instance: Instance) -> SimState:
    return SimState(0, {s.id: s.energy for s in instance.sessions})


def _cells(sessions, keys) -> list[tuple]:
    """A run's cell of each session, in order: (key, peak rate, rate
    tolerance, id, done level, session).  The key names its id's remaining
    energy in the run's `remaining`; the session is finished once that is
    at most the done level, `FINISHED_EPS` * max(1.0, energy), or for a
    positive energy `DEMAND_TOL` * energy where that is lower, so an energy
    under 1e-6 is charged until its demand is met, a subnormal one, whose
    `DEMAND_TOL` * energy rounds to 0.0, until none is left.  The plain
    compares give a NaN, zero or negative energy the level `FINISHED_EPS`
    and an infinite one inf."""
    out = []
    for s, key in zip(sessions, keys):
        max_rate, energy = s.max_rate, s.energy
        done, met = FINISHED_EPS * (energy if energy > 1.0 else 1.0), DEMAND_TOL * energy
        out.append((key, max_rate, RATE_TOL * (max_rate if max_rate > 1.0 else 1.0), s.id,
                    met if 0.0 < energy and met < done else done, s))
    return out


def _charge(remaining, cells, rates, t: int, p_limit: float, rows=None) -> None:
    """Check one slot's rates and charge them into `remaining` in place: the
    one rate check of the package, which `step` and the simulator's runs use.

    `rates[j]` is the rate of the session of `_cells` entry `cells[j]`, whose
    key names its id's remaining energy in `remaining` and, with `rows`, its
    id's (window start, row), where a rate above 0 is written at slot t as
    applied (clamped).  Each key appears once.  The total is summed in the
    given order.  A rate is applied clamped to [0, cap], and to 0.0 where
    the cap is below 0 (a negative peak rate or remaining energy), so no
    remaining energy ever rises.
    """
    total = 0.0
    for (key, max_rate, tol, sid, _, _), r in zip(cells, rates):
        rem = remaining[key]
        cap = rem if rem < max_rate else max_rate  # min(max_rate, rem), NaN alike
        if not -tol <= r <= cap + tol:  # written so that NaN fails too
            raise ContractError(f"rate {r} outside [0, {cap}] for {sid} at slot {t}")
        charged = 0.0 if r < 0.0 else r  # min(max(r, 0.0), cap), -0.0 kept as max keeps it
        if cap < charged:
            charged = cap if cap >= 0.0 else 0.0  # a cap of -0.0 kept, as max keeps it
        if r > 0.0 and rows is not None:
            start, row = rows[key]
            row[t - start] = charged
        remaining[key] = rem - charged
        total += charged
    if not total <= p_limit + RATE_TOL * (p_limit if p_limit > 1.0 else 1.0):  # NaN fails too
        raise ContractError(f"total rate {total} exceeds power limit {p_limit} at slot {t}")


def _charge_ids(remaining, rates: dict[str, float], active: dict, t: int, p_limit: float,
                rows=None) -> None:
    """`_charge` of rates by id, in the dict's order: `active` maps each
    active id to its cell (a repeated id to that of its last session).  A
    rate for another id is skipped if it is 0 and otherwise a
    `ContractError`, raised after the rates before it are checked."""
    cells, values = [], []
    for sid, r in rates.items():
        cell = active.get(sid)
        if cell is None:
            if r != 0.0:
                _charge(remaining, cells, values, t, math.inf, rows)  # no total is over inf
                raise ContractError(f"rate {r} for inactive session {sid} at slot {t}")
            continue
        cells.append(cell)
        values.append(r)
    _charge(remaining, cells, values, t, p_limit, rows)


def step(state: SimState, rates: dict[str, float], instance: Instance) -> SimState:
    """Apply one slot of charging and advance time; pure state-in/state-out.

    `state` is left as it is: `_charge_ids` checks the rates and charges them
    into a copy of its `remaining`, keyed by id, without rows; the run
    memory is carried on.
    """
    t = state.t
    p_limit = instance.power.at(t) if t < instance.horizon else 0.0
    remaining, active = dict(state.remaining), instance.active_at(t)
    _charge_ids(remaining, rates, {c[3]: c for c in _cells(active, [s.id for s in active])},
                t, p_limit)
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
        switch.  Each rate's zero test is carried to the next pair.  A running
        sum in row order: `sum()` compensates from 3.12 on.  `evcs run`
        prints both, so it takes them from this one walk.

        The walk steps over each run of equal rates at once (`groupby`): a
        pair inside it adds +0.0, which leaves the sum as it is, and no
        switch, and the pair after it differs by the same float from the
        run's first rate as from its last, ±0.0 alike.  Only a run of one
        infinity twice or more adds something inside, inf - inf = NaN, once,
        as NaN keeps the sum NaN.
        """
        horizon, starts, switches = self.horizon, self.starts, 0
        variation = 0.0 if self.rates and horizon > 1 else 0
        for sid, row in self.rates.items():
            start, rates = starts.get(sid, 0), iter(row)
            if start > 0:
                prev = 0.0  # the zero before the window
            elif row:
                prev = next(rates)
            else:
                continue
            off = -ZERO_EPS <= prev <= ZERO_EPS  # abs(prev) <= ZERO_EPS, NaN alike
            for r, run in groupby(rates):
                variation += abs(r - prev)
                now = -ZERO_EPS <= r <= ZERO_EPS
                if now is not off:
                    switches += 1
                    off = now
                prev = r
                # r - r is NaN, which is true, only for an infinity or a NaN, and
                # a NaN equals no rate, so its run is one rate long
                if r - r and len(tuple(islice(run, 2))) == 2:
                    variation += abs(r - r)
            if start + len(row) < horizon:  # the zero after the window
                variation += abs(0.0 - prev)
                if not off:
                    switches += 1
        return variation, switches


def min_laxity(instance: Instance, schedule: Schedule) -> float:
    """Smallest laxity any session reaches over slots [0, horizon] of the schedule.

    Each session is followed from its arrival to its departure (or the
    horizon).  After the departure its laxity is -remaining/max_rate, which
    nonnegative rates can only raise, so the slots after it are skipped.
    Each row is read over the session's slots, from a slice of its window.
    """
    horizon, lowest = schedule.horizon, math.inf
    rates, starts = schedule.rates, schedule.starts
    for s in instance.sessions:
        row, start = rates[s.id], starts.get(s.id, 0)
        rem, lo, departure, max_rate = s.energy, max(s.arrival, 0), s.departure, s.max_rate
        last = min(departure, horizon)
        if start <= lo:  # r(lo), ..., r(last - 1) as far as the window reaches
            window = row[lo - start:max(last - start, 0)]
        else:
            window = (0.0,) * (min(start, last) - lo) + tuple(row[:max(last - start, 0)])
        # `laxity`'s closed form, as arrival <= t <= departure; plain compares: a hot loop
        for t, r in zip(range(lo, last), window):
            lax = departure - t - (0.0 if rem < 0.0 else rem) / max_rate
            if lax < lowest:
                lowest = lax
            rem -= r
        for t in range(lo + len(window), last + 1):  # rate 0.0; rem is not read after `last`
            lax = departure - t - (0.0 if rem < 0.0 else rem) / max_rate
            if lax < lowest:
                lowest = lax
    return lowest


@dataclass(frozen=True)
class RunVerdict:
    """The outcome of a run or of a schedule check; the run metrics are functions
    of the schedule: `min_laxity`, `Schedule.total_variation` and `.switch_count`."""

    feasible: bool
    unmet_energy: dict[str, float]
    violations: tuple = ()

