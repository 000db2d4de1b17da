"""Reference simulator: every slot scans every session, metrics walk every slot.

`full_scan_step` and `full_scan_chargeable` find the active sessions by
testing `arrival <= t < departure` on all of them, and `full_scan_simulate`
scores a run with `Schedule.total_variation()` and `switch_count()` over the
whole horizon.  `evcs.simulator.simulate` reads the sessions from
`Instance.active_at` and limits the metrics to each sojourn, so it must
return the same floats.  `full_scan_validate_schedule` tests every rate of
every row and sums every slot column one by one, where
`evcs.feasibility.validate_schedule` walks only rows that break a bound; the
two must return equal verdicts.
"""
from unittest import mock

from evcs import schedulers
from evcs.dynamics import RATE_TOL, RunVerdict, Schedule, SimState, initial_state, min_laxity
from evcs.feasibility import DEMAND_TOL
from evcs.model import ContractError, Violation
from evcs.schedulers import FINISHED_EPS, POLICIES
from evcs.simulator import PolicyContractError


def full_scan_step(state, rates, instance):
    t = state.t
    p_limit = instance.power.at(t) if t < instance.horizon else 0.0
    power_tol = RATE_TOL * max(1.0, p_limit)
    total = 0.0
    remaining = dict(state.remaining)
    active = {s.id: s for s in instance.sessions if s.arrival <= t < s.departure}
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
        r = min(max(r, 0.0), cap)
        remaining[sid] = max(remaining[sid] - r, 0.0)
        total += r
    if total > p_limit + power_tol:
        raise ContractError(f"total rate {total} exceeds power limit {p_limit} at slot {t}")
    return SimState(t + 1, remaining)


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
    """The whole run, with every policy reading `full_scan_chargeable`."""
    with mock.patch.object(schedulers, "_chargeable", full_scan_chargeable):
        policy = POLICIES[policy_name]
        horizon = instance.horizon
        state = initial_state(instance)
        rows = {s.id: [0.0] * horizon for s in instance.sessions}
        max_rate = {s.id: s.max_rate for s in instance.sessions}
        for t in range(horizon):
            rates = policy(state, instance, t).rates
            try:
                applied = full_scan_step(state, rates, instance)
            except ContractError as exc:
                raise PolicyContractError(str(exc)) from exc
            for sid, r in rates.items():
                if r > 0.0:
                    rows[sid][t] = min(r, max_rate[sid], state.remaining[sid])
            state = applied
    schedule = Schedule(horizon, {sid: tuple(row) for sid, row in rows.items()})
    unmet = {s.id: state.remaining[s.id] for s in instance.sessions}
    feasible = all(unmet[s.id] <= DEMAND_TOL * s.energy for s in instance.sessions)
    verdict = RunVerdict(
        feasible=feasible,
        min_laxity=min_laxity(instance, schedule),
        unmet_energy=unmet,
        oscillation=schedule.total_variation(),
        switch_count=schedule.switch_count(),
    )
    return schedule, verdict


def full_scan_validate_schedule(instance, schedule):
    horizon = instance.horizon
    if schedule.horizon != horizon or set(schedule.rates) != {s.id for s in instance.sessions}:
        raise ContractError("schedule dimensions do not match the instance")
    violations = []
    for s in instance.sessions:
        row = schedule.rates[s.id]
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
        total = schedule.slot_total(t)
        if total > p + 1e-9 * max(1.0, p):
            violations.append(Violation(
                "power-bound", f"slot {t}", f"total {total} exceeds P({t}) = {p}"))
    unmet = {}
    for s in instance.sessions:
        short = s.energy - schedule.delivered(s.id)
        unmet[s.id] = max(short, 0.0)
        if short > DEMAND_TOL * s.energy:
            violations.append(Violation(
                "demand-unmet", s.id, f"delivered misses demand by {short}"))
        elif short < -DEMAND_TOL * s.energy:
            violations.append(Violation(
                "demand-exceeded", s.id, f"delivered exceeds demand by {-short}"))
    return RunVerdict(
        feasible=not violations,
        min_laxity=min_laxity(instance, schedule),
        unmet_energy=unmet,
        oscillation=schedule.total_variation(),
        switch_count=schedule.switch_count(),
        violations=tuple(violations),
    )
