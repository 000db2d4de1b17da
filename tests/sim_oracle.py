"""Reference simulator: every slot scans every session, metrics walk every slot.

`full_scan_step` and `full_scan_chargeable` find the active sessions by
testing `arrival <= t < departure` on all of them, and `full_scan_simulate`
steps every slot of the horizon into horizon-long rows, each holding the
rate `full_scan_charge` applied, and carries the run memory from each state
to the next.
`evcs.simulator.simulate` steps only the busy slots into rows over each
sojourn, so `dense` of its schedule must equal the full scan's, and its
verdict must be the same floats.  `dense_metrics` and `dense_min_laxity`,
which index every slot of a dense schedule, pin `Schedule._metrics` and
`min_laxity` of the windowed one.  `full_scan_validate_schedule` reads every
rate of every row through `Schedule.rate` and sums every slot column one by
one; it pins the verdicts of `evcs.feasibility.validate_schedule`, which
walks windows and must stay equal to it.
"""
import math
from unittest import mock

from evcs import schedulers
from evcs.dynamics import (RATE_TOL, ZERO_EPS, RunVerdict, Schedule, SimState, initial_state,
                           laxity, min_laxity)
from evcs.feasibility import DEMAND_TOL
from evcs.model import ContractError, Violation
from evcs.schedulers import FINISHED_EPS, POLICIES
from evcs.simulator import PolicyContractError


def dense(schedule):
    """The same schedule with horizon-long rows from slot 0, read through `Schedule.rate`."""
    horizon = schedule.horizon
    return Schedule(horizon, {sid: tuple(schedule.rate(sid, t) for t in range(horizon))
                              for sid in schedule.rates})


def dense_metrics(schedule):
    """(total variation, switch count) of a dense schedule over every slot pair."""
    variation, switches = 0, 0
    for row in schedule.rates.values():
        for t in range(schedule.horizon - 1):
            variation += abs(row[t + 1] - row[t])
            if (abs(row[t]) <= ZERO_EPS) != (abs(row[t + 1]) <= ZERO_EPS):
                switches += 1
    return variation, switches


def dense_min_laxity(instance, schedule):
    """`min_laxity` of a dense schedule, indexing each slot of each sojourn."""
    horizon, lowest = schedule.horizon, math.inf
    for s in instance.sessions:
        rem, row = s.energy, schedule.rates[s.id]
        end = min(s.departure, horizon)
        for t in range(max(s.arrival, 0), end + 1):
            lowest = min(lowest, laxity(s, t, max(rem, 0.0)))
            if t < end:
                rem -= row[t]
    return lowest


def assert_dense_metrics(instance, schedule):
    """`Schedule._metrics` and `min_laxity` give the dense schedule's values, float for float."""
    full = dense(schedule)
    assert repr(schedule._metrics()) == repr(dense_metrics(full))
    assert repr(min_laxity(instance, schedule)) == repr(dense_min_laxity(instance, full))


def full_scan_charge(state, rates, instance):
    """The next state and the rate applied to each id charged above 0."""
    t = state.t
    p_limit = instance.power.at(t) if t < instance.horizon else 0.0
    power_tol = RATE_TOL * max(1.0, p_limit)
    total = 0.0
    remaining = dict(state.remaining)
    active = {s.id: s for s in instance.sessions if s.arrival <= t < s.departure}
    applied = {}
    for sid, r in rates.items():
        if sid not in active:
            if r != 0.0:
                raise ContractError(f"rate {r} for inactive session {sid} at slot {t}")
            continue
        s = active[sid]
        cap = min(s.max_rate, remaining[sid])
        tol = RATE_TOL * max(1.0, s.max_rate)
        if not -tol <= r <= cap + tol:
            raise ContractError(f"rate {r} outside [0, {cap}] for {sid} at slot {t}")
        clamped = min(max(r, 0.0), cap)
        if r > 0.0:
            applied[sid] = clamped
        remaining[sid] = max(remaining[sid] - clamped, 0.0)
        total += clamped
    if not total <= p_limit + power_tol:  # a NaN power fails, as it does for `simulate`
        raise ContractError(f"total rate {total} exceeds power limit {p_limit} at slot {t}")
    return SimState(t + 1, remaining, state.memory), applied


def full_scan_step(state, rates, instance):
    return full_scan_charge(state, rates, instance)[0]


def full_scan_chargeable(state, instance, t):
    if state.t != t:
        raise ContractError(f"state at slot {state.t}, policy queried for {t}")
    out = []
    for s in instance.sessions:
        if s.arrival <= t < s.departure:
            if state.remaining[s.id] > FINISHED_EPS * max(1.0, s.energy):
                out.append(s)
    return out


def full_scan_simulate(instance, policy_name):
    """The whole run, with every policy reading `full_scan_chargeable`; one run
    memory, as `simulate` makes, goes from slot to slot."""
    with mock.patch.object(schedulers, "_chargeable", full_scan_chargeable):
        policy = POLICIES[policy_name]
        horizon = instance.horizon
        state = SimState(0, initial_state(instance).remaining, {})
        rows = {s.id: [0.0] * horizon for s in instance.sessions}
        for t in range(horizon):
            rates = policy(state, instance, t).rates
            try:
                state, applied = full_scan_charge(state, rates, instance)
            except ContractError as exc:
                raise PolicyContractError(str(exc)) from exc
            for sid, r in applied.items():
                rows[sid][t] = r
    schedule = Schedule(horizon, {sid: tuple(row) for sid, row in rows.items()})
    unmet = {s.id: state.remaining[s.id] for s in instance.sessions}
    feasible = all(unmet[s.id] <= DEMAND_TOL * s.energy for s in instance.sessions)
    return schedule, RunVerdict(feasible, unmet)


def full_scan_validate_schedule(instance, schedule):
    horizon = instance.horizon
    if (schedule.horizon != horizon or set(schedule.rates) != {s.id for s in instance.sessions}
            or any(schedule.starts.get(sid, 0) < 0
                   or schedule.starts.get(sid, 0) + len(row) > horizon
                   for sid, row in schedule.rates.items())):
        raise ContractError("schedule dimensions do not match the instance")
    full = dense(schedule)
    violations = []
    for s in instance.sessions:
        row = full.rates[s.id]
        tol = 1e-9 * max(1.0, s.max_rate)
        for t in range(horizon):
            r = row[t]
            if s.arrival <= t < s.departure:
                if r < -tol or r > s.max_rate + tol:
                    violations.append(Violation(
                        "rate-bound", s.id, f"r({t}) = {r} outside [0, {s.max_rate}]"))
            elif abs(r) > tol:
                violations.append(Violation(
                    "rate-outside-window", s.id, f"r({t}) = {r} outside sojourn"))
    for t in range(horizon):
        p = instance.power.at(t)
        total = 0
        for row in full.rates.values():
            total += row[t]
        if total > p + 1e-9 * max(1.0, p):
            violations.append(Violation(
                "power-bound", f"slot {t}", f"total {total} exceeds P({t}) = {p}"))
    unmet = {}
    for s in instance.sessions:
        short = s.energy - sum(full.rates[s.id])
        unmet[s.id] = max(short, 0.0)
        if short > DEMAND_TOL * s.energy:
            violations.append(Violation(
                "demand-unmet", s.id, f"delivered misses demand by {short}"))
        elif short < -DEMAND_TOL * s.energy:
            violations.append(Violation(
                "demand-exceeded", s.id, f"delivered exceeds demand by {-short}"))
    return RunVerdict(not violations, unmet, tuple(violations))
