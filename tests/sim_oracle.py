"""Reference simulator: every slot scans every session, metrics walk every slot.

`full_scan_step`, `full_scan_chargeable` and `full_scan_active` find the
active sessions by testing `arrival <= t < departure` on all of them, and
`full_scan_simulate` calls the policy at every slot of the horizon,
uncontended ones included, with `Instance.active_at` answered by that scan
and `schedulers._live` by `full_scan_live`, which tests the finished rule
(`done_level`) and takes the caps with `max` and `min`.  It steps each slot
into horizon-long rows, each holding the rate `full_scan_charge` applied,
never below 0.0, and carries the run memory from each state to the next.
`busy_slot_run` is the run of any `(SimState, Instance, t)` function, such
as a frozen reference policy: it calls the function at every slot of
`Instance.busy_spans()` and charges through `full_scan_charge`, reads no
power at an idle slot and, with `stop_at_miss`, stops where
`run_feasibility` stops.
`evcs.simulator.simulate` steps only the busy slots into rows over each
sojourn, so `dense` of its schedule must equal the full scan's, and its
verdict must be the same floats.  `dense_metrics` and `dense_min_laxity`,
which index every slot of a dense schedule, pin `Schedule._metrics` and
`min_laxity` of the windowed one.  `full_scan_validate_schedule` reads every
rate of every row through `Schedule.rate` and sums every slot column one by
one, and joins the consecutive slots outside every window that break the
power bound into one violation per stretch between event points; it pins
the verdicts of `evcs.feasibility.validate_schedule`, which walks windows and
must stay equal to it.
"""
import math
from unittest import mock

from evcs import schedulers
from evcs.dynamics import (FINISHED_EPS, RATE_TOL, ZERO_EPS, RunVerdict, Schedule, SimState,
                           initial_state, laxity, min_laxity)
from evcs.feasibility import DEMAND_TOL
from evcs.model import ContractError, Instance, StepwisePower, Violation
from evcs.schedulers import POLICIES
from evcs.simulator import PolicyContractError

#: the five policies that a run decides through `_kernel_rates`: each gives
#: every chargeable session its cap at an uncontended slot, and a run
#: charges the rest of such a slot's busy span in one pass
CAPS_FIRST = frozenset({"sllf", "llf", "edf", "es", "rep"})


def dense(schedule):
    """The same schedule with horizon-long rows from slot 0, read through `Schedule.rate`."""
    horizon = schedule.horizon
    return Schedule(horizon, {sid: tuple(schedule.rate(sid, t) for t in range(horizon))
                              for sid in schedule.rates})


def slot_total(schedule, t):
    """The rates at slot t, read through `Schedule.rate` and summed in row order."""
    total = 0
    for sid in schedule.rates:
        total += schedule.rate(sid, t)
    return total


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
        clamped = max(min(max(r, 0.0), cap), 0.0)  # never below 0.0, whatever the cap
        if r > 0.0:
            applied[sid] = clamped
        remaining[sid] = remaining[sid] - clamped
        total += clamped
    if not total <= p_limit + power_tol:  # a NaN power fails, as it does for `simulate`
        raise ContractError(f"total rate {total} exceeds power limit {p_limit} at slot {t}")
    return SimState(t + 1, remaining, state.memory), applied


def full_scan_step(state, rates, instance):
    return full_scan_charge(state, rates, instance)[0]


def done_level(session) -> float:
    """The remaining energy at or below which a run counts a session as
    finished: `FINISHED_EPS` of its energy or of 1.0, whichever is larger, or
    `DEMAND_TOL` of a positive energy where that is lower."""
    done, met = FINISHED_EPS * max(1.0, session.energy), DEMAND_TOL * session.energy
    return met if 0.0 < session.energy and met < done else done


def full_scan_live(cells, remaining):
    """(the cells with unfinished demand, their caps and remaining energies),
    as `schedulers._live` gives them, each cell's session at cell[5] and its
    remaining energy under cell[0]; the cell's own done level is not read,
    the session's `done_level` is."""
    live = [cell for cell in cells if remaining[cell[0]] > done_level(cell[5])]
    rems = [remaining[cell[0]] for cell in live]
    return live, [min(cell[5].max_rate, rem) for cell, rem in zip(live, rems)], rems


def full_scan_chargeable(state, instance, t):
    """(chargeable sessions, their caps), as `flow_oracle.chargeable` gives them."""
    if state.t != t:
        raise ContractError(f"state at slot {state.t}, policy queried for {t}")
    remaining = state.remaining
    out = [s for s in full_scan_active(instance, t) if remaining[s.id] > done_level(s)]
    return out, [min(s.max_rate, remaining[s.id]) for s in out]


def full_scan_active(instance, t):
    """The sessions with `arrival <= t < departure`, in instance order, as
    `Instance.active_at` gives them."""
    return tuple(s for s in instance.sessions if s.arrival <= t < s.departure)


def full_scan_simulate(instance, policy_name):
    """The whole run, with every policy reading its active sessions from
    `full_scan_active` and its chargeable ones and caps from
    `full_scan_live`; one run memory, as `simulate` makes, goes from slot
    to slot."""
    with mock.patch.object(Instance, "active_at", full_scan_active), \
            mock.patch.object(schedulers, "_live", full_scan_live):
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


def busy_slot_run(instance, policy, stop_at_miss=False):
    """(schedule with horizon-long rows, verdict) of the run that calls
    `policy(state, instance, t)` at each slot of `instance.busy_spans()`,
    with one run memory, and charges its rates through `full_scan_charge`.

    With `stop_at_miss` the run stops after the first span end b at which
    the window of some id, its sessions' sojourns clipped to [0, horizon)
    and joined, closes with a session of that id short of its demand, as
    `run_feasibility` stops; the verdict's `feasible` is its flag."""
    horizon, sessions = instance.horizon, instance.sessions
    window_end = {}
    for s in sessions:
        end = min(max(s.departure, 0), horizon)
        window_end[s.id] = max(end, window_end.get(s.id, end))
    remaining, memory = initial_state(instance).remaining, {}
    rows = {s.id: [0.0] * horizon for s in sessions}
    for a, b, _ in instance.busy_spans():
        state = SimState(a, remaining, memory)
        for t in range(a, b):
            rates = policy(state, instance, t).rates
            try:
                state, applied = full_scan_charge(state, rates, instance)
            except ContractError as exc:
                raise PolicyContractError(str(exc)) from exc
            for sid, r in applied.items():
                rows[sid][t] = r
        remaining = state.remaining
        if stop_at_miss and any(window_end[s.id] == b
                                and not remaining[s.id] <= DEMAND_TOL * s.energy
                                for s in sessions):
            break
    schedule = Schedule(horizon, {sid: tuple(row) for sid, row in rows.items()})
    unmet = {s.id: remaining[s.id] for s in sessions}
    feasible = all(unmet[s.id] <= DEMAND_TOL * s.energy for s in sessions)
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
    # a stretch starts at 0 and at each arrival, departure and power change
    cuts = {0} | {t for s in instance.sessions if s.arrival < s.departure
                  for t in (s.arrival, s.departure)}
    if isinstance(instance.power, StepwisePower):
        cuts |= {t for t in range(1, horizon) if instance.power.at(t) != instance.power.at(t - 1)}
    run = None  # [first, last, total, P] of over-bound slots outside every window

    def close():
        first, last, total, p = run
        violations.append(Violation("power-bound", f"slots {first}-{last}",
                                    f"total {total} exceeds P = {p} at each slot"))

    for t in range(horizon):
        p = instance.power.at(t)
        total = 0
        for row in full.rates.values():
            total += row[t]
        over = total > p + 1e-9 * max(1.0, p)
        covered = any(schedule.starts.get(sid, 0) <= t < schedule.starts.get(sid, 0) + len(row)
                      for sid, row in schedule.rates.items())
        if run is not None and (t in cuts or covered or not over):
            close()
            run = None
        if over and covered:
            violations.append(Violation(
                "power-bound", f"slot {t}", f"total {total} exceeds P({t}) = {p}"))
        elif over:
            run = run or [t, t, total, p]
            run[1] = t
    if run is not None:
        close()
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
