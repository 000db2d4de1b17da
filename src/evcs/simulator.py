"""Drives a policy over an instance slot by slot and scores the outcome.

Everything runs serially in the calling process.  `simulate` and
`run_feasibility` share one slot loop, `_run`; the corpus sweeps, the
augmentation search and the separation search read only verdicts, so they run
through `run_feasibility`, which stops each run once its verdict is settled.
"""
from __future__ import annotations

import math
import warnings

from .dynamics import (RunVerdict, Schedule, SimState, _charge, _rate_limits,
                       initial_state, laxity)
from .dynamics import step  # noqa: F401  kept: the benchmark's tracer wraps simulator.step
from .feasibility import DEMAND_TOL
from .model import ContractError, Instance
from .schedulers import CAPS_FIRST, FINISHED_EPS, KERNELS, _kernel_rates, get_policy


class PolicyContractError(ContractError):
    """A policy returned rates violating its stated invariants (a bug signal)."""


def simulate(instance: Instance, policy_name: str) -> tuple[Schedule, RunVerdict]:
    """Run one policy over the busy slots; deterministic for fixed inputs.

    Every busy slot is decided, checked and recorded (see `_run`).  Each row
    is a window over its sojourn clipped to [0, horizon), joined over an id,
    and records the rate that `_charge`, the rate check `step` runs too,
    applied at each slot; it rejects rates outside the window.
    """
    starts, ends = _windows(instance)
    rows = {sid: (lo, [0.0] * (ends[sid] - lo)) for sid, lo in starts.items()}
    remaining = _run(instance, policy_name, rows)
    schedule = Schedule(instance.horizon, {sid: tuple(row) for sid, (_, row) in rows.items()},
                        starts)
    unmet = {s.id: remaining[s.id] for s in instance.sessions}
    return schedule, RunVerdict(_meets_demand(instance.sessions, remaining), unmet)


def run_feasibility(instances, policy_name: str) -> list[bool]:
    """Per-instance feasibility flags in input order: `simulate`'s verdicts,
    from serial runs that build no schedule.

    Each run stops after the first busy stretch at whose end the window of
    some id closes with a session of that id short of its demand: that id's
    remaining energy can no longer change, so the verdict is False, and no
    later slot is decided or checked.  A policy contract error at such a
    later slot, which `simulate` raises, is therefore not raised here; with
    the shipped policies only an instance that `validate` rejects, such as
    one with a NaN power, can have one.
    """
    return [_meets_demand(inst.sessions, _run(inst, policy_name, None)) for inst in instances]


def _windows(instance: Instance) -> tuple[dict[str, int], dict[str, int]]:
    """(starts, ends): each id's window, its sessions' sojourns clipped to
    [0, horizon) and joined, as its first slot and the slot after its last."""
    horizon, starts, ends = instance.horizon, {}, {}
    for s in instance.sessions:
        lo, hi = min(max(s.arrival, 0), horizon), min(max(s.departure, 0), horizon)
        starts[s.id], ends[s.id] = min(lo, starts.get(s.id, lo)), max(hi, ends.get(s.id, hi))
    return starts, ends


def _meets_demand(sessions, remaining: dict[str, float]) -> bool:
    """Whether each session's id has at most `DEMAND_TOL` of its energy left."""
    return all(remaining[s.id] <= DEMAND_TOL * s.energy for s in sessions)


def _run(instance: Instance, policy_name: str, rows: dict | None) -> dict[str, float]:
    """The one slot loop of a run; returns the run's `remaining` energies.

    Only the slots of `Instance.busy_spans` are decided and charged, so `P(t)`
    is never read at an idle slot: a negative power there is left to
    `validate`, which rejects it.  Each span's power is read once, at its
    first slot.  Each session's rate limits are taken once per run, and each
    span's dict is built from them by position.  Every slot's rates are
    checked and charged by `_charge`.

    For sLLF, LLF, EDF, ES and REP, the functions `get_policy` gives for
    them, each slot is decided on the span the loop holds, with no
    `SimState` or `RateDecision`: `_kernel_rates` with the policy's rate
    kernel (`schedulers.KERNELS`) on the span's sessions, its power and the
    run's `remaining` gives the rates the public function would.  Any other
    function in `POLICIES` (OLP, or a wrapper put there) is called with a
    `SimState` that wraps the run's one `remaining` dict and run memory.

    A policy decides each busy slot but those a run charges by one of two
    rules.  First, at the caps: once a `CAPS_FIRST` policy gives every
    chargeable session its cap (`_kernel_rates` gives the caps, or a called
    function's decision has `threshold == inf`) at a slot t of a span
    [a, b), it would at every later slot, since the span has one power and
    one set of sessions, each cap `min(max_rate, remaining)` can only fall,
    finished sessions only drop out, and a float sum of fewer, smaller
    nonnegative terms in the same order is no larger.  So `_charge_at_caps`
    charges slots t + 1 ... b - 1 in one pass per session, with the float
    operations `_charge` would make at each slot.  That needs each id's
    remaining energy to be its one session's and every cap above 0, so a
    span with a repeated id or a peak rate that is not above 0 (NaN
    included) is decided slot by slot.

    Second, OLP's plan: OLP is asked at a busy slot only where the run
    memory holds no plan (before its first solve, and after a fallback) or
    the plan misses a chargeable session.  At every other busy slot
    `olp_rates` would follow the plan and leave the memory as it is, so the
    run charges the rates it would follow there (`_followed_rates`), and a
    plan rate that breaks a check raises at its slot as a call's would.

    `rows` maps each id to (window start, row), and `_charge` writes each
    applied rate there.  Without rows (None) the run stops after the first span
    [a, b) at whose end b some id's window closes with a session of that id
    short of its demand: `_charge` charges only the ids of a span's limits,
    so an id's remaining energy is final once its window has ended.
    """
    policy = get_policy(policy_name)
    kernel = KERNELS.get(policy)
    sessions, power = instance.sessions, instance.power
    remaining, memory = initial_state(instance).remaining, {}
    limits_of = _rate_limits(sessions)
    follows = policy_name == "olp"
    due = {}  # window end -> the sessions whose id's window ends there
    if rows is None:
        ends = _windows(instance)[1]
        for s in sessions:
            due.setdefault(ends[s.id], []).append(s)
    for a, b, positions in instance.busy_spans():
        span = [sessions[k] for k in positions]  # `active_at` of each slot of the span
        limits = dict([limits_of[k] for k in positions])
        p_limit = power.at(a)  # the span's one power: its slots' powers compare equal
        one_pass = (policy_name in CAPS_FIRST and len(limits) == len(span)
                    and all(s.max_rate > 0.0 for s in span))
        for t in range(a, b):
            if kernel is not None:
                rates, at_caps, _, _ = _kernel_rates(kernel, span, remaining, p_limit, t)
            else:
                rates = _followed_rates(span, remaining, memory.get("olp"), t) if follows else None
                if rates is None:
                    decision = policy(SimState(t, remaining, memory), instance, t)
                    rates, at_caps = decision.rates, decision.threshold == math.inf
            try:
                _charge(remaining, rates, limits, t, p_limit, rows)
            except ContractError as exc:
                raise PolicyContractError(str(exc)) from exc
            if one_pass and at_caps:  # never OLP, which may follow
                _charge_at_caps(span, remaining, rows, t + 1, b)
                break
        if b in due and not _meets_demand(due[b], remaining):
            break
    return remaining


def _followed_rates(span, remaining: dict[str, float], plan, t: int) -> dict[str, float] | None:
    """The rates `olp_rates` follows at slot t of `span` from the run
    memory's `plan`, or None without a plan or where a chargeable session
    (`_chargeable`'s rule) is one the plan does not hold: each chargeable
    session's row entry at t by id, in span order, where a later session of
    a repeated id sets that id's rate; none when no session is chargeable.
    A held session's row reaches its departure clipped to the horizon, so
    it covers t, and t lies in the plan's window."""
    if plan is None:
        return None
    _, start, _, planned = plan
    rates = {}
    for s in span:
        energy = s.energy
        if remaining[s.id] > FINISHED_EPS * (energy if energy > 1.0 else 1.0):
            row = planned.get(id(s))
            if row is None:
                return None
            rates[s.id] = row[t - start]
    return rates


def _charge_at_caps(span, remaining: dict[str, float], rows: dict | None,
                    t: int, b: int) -> None:
    """Charge each session of `span` at its cap over slots t ... b - 1, in
    place, as `_charge` would slot by slot (see `_run`): a session charges
    while it is unfinished by `_chargeable`'s rule, its peak rate while that
    fits, and then all it has left, to 0.0."""
    for s in span:
        sid, max_rate, energy = s.id, s.max_rate, s.energy
        done = FINISHED_EPS * (energy if energy > 1.0 else 1.0)
        rem, u = remaining[sid], t
        if rows is None:
            while u < b and rem > done:
                rem = 0.0 if rem < max_rate else rem - max_rate
                u += 1
        else:
            start, row = rows[sid]
            while u < b and rem > done:
                if rem < max_rate:
                    row[u - start], rem = rem, 0.0
                else:
                    row[u - start], rem = max_rate, rem - max_rate
                u += 1
        remaining[sid] = rem


def success_rate(instances, policy_name: str) -> float:
    """Fraction of instances the policy completes feasibly."""
    if not instances:
        warnings.warn("success_rate over an empty corpus is vacuously 1.0")
        return 1.0
    flags = run_feasibility(instances, policy_name)
    return sum(flags) / len(flags)


def instance_metrics(instance: Instance) -> tuple[float, float]:
    """(max sojourn ratio, min normalized initial laxity) of an instance.

    Without sessions both are at the end of their range: (1.0, 1.0).  A
    session with an empty sojourn or a peak rate of 0, which `validate`
    rejects, is a `ContractError` naming it.
    """
    if not instance.sessions:
        return 1.0, 1.0
    for s in instance.sessions:  # each divisor below
        if s.sojourn == 0 or s.max_rate == 0.0:
            what = "an empty sojourn" if s.sojourn == 0 else "peak rate 0"
            raise ContractError(f"session {s.id} has {what}: its instance metrics are undefined")
    sojourns = [s.sojourn for s in instance.sessions]
    ratio = max(sojourns) / min(sojourns)
    norm_lax = min(laxity(s, s.arrival, s.energy) / s.sojourn for s in instance.sessions)
    return ratio, norm_lax


def binned_success_rates(instances, flags, metric_index: int, bins: int):
    """Equal-count bins over the sorted metric; (lo, hi, count, rate) per bin."""
    values = [instance_metrics(inst)[metric_index] for inst in instances]
    order = sorted(range(len(values)), key=lambda k: values[k])
    out = []
    for b in range(bins):
        chunk = order[b * len(order) // bins:(b + 1) * len(order) // bins]
        if not chunk:
            continue
        rate = sum(flags[j] for j in chunk) / len(chunk)
        out.append((values[chunk[0]], values[chunk[-1]], len(chunk), rate))
    return out


def separation_witness(instances):
    """First instance sLLF completes and LLF does not, else None."""
    for inst in instances:
        if run_feasibility([inst], "sllf")[0] and not run_feasibility([inst], "llf")[0]:
            return inst
    return None
