"""Drives a policy over an instance slot by slot and scores the outcome.

Everything runs serially in the calling process.  `simulate` and
`run_feasibility` share one slot loop, `_run`; the corpus sweeps, the
augmentation search and the separation search read only verdicts, so they run
through `run_feasibility`, which stops each run once its verdict is settled.
Every entry point takes only instances that `validate` accepts
(`require_valid`): each session's id is its own, its sojourn lies inside
[0, horizon) and its peak rate is above 0.

The loop asks a kernel only where its rates are not known already.  Two
one-pass rules charge the rest: after a slot at the caps, the rest of its
busy span is charged at the caps (`_charge_at_caps`), and after a contended
EDF or ES slot, the same rates are charged while the chargeable sessions
and their caps repeat (`_charge_repeats`).
"""
from __future__ import annotations

import warnings

from .dynamics import DEMAND_TOL, RunVerdict, Schedule, _cells, _charge, laxity
from .dynamics import step  # noqa: F401  kept: the benchmark's tracer wraps simulator.step
from .model import ContractError, Instance, require_valid
from .schedulers import FILL_KEYS, KERNELS, REPEATING, _kernel_rates, _named, _olp


class PolicyContractError(ContractError):
    """A policy returned rates violating its stated invariants (a bug signal)."""


def simulate(instance: Instance, policy_name: str) -> tuple[Schedule, RunVerdict]:
    """Run one policy over the busy slots; deterministic for fixed inputs.

    Every busy slot is decided, checked and recorded (see `_run`).  Each row
    is a window over its session's sojourn and records the rate that
    `_charge` applied at each slot.
    """
    require_valid(instance)
    sessions = instance.sessions
    rows = [(s.arrival, [0.0] * (s.departure - s.arrival)) for s in sessions]
    remaining = _run(instance, policy_name, rows)
    schedule = Schedule(instance.horizon,
                        {s.id: tuple(row) for s, (_, row) in zip(sessions, rows)},
                        {s.id: s.arrival for s in sessions})
    verdict = _meets_demand(sessions, remaining, range(len(sessions)))
    return schedule, RunVerdict(verdict, {s.id: r for s, r in zip(sessions, remaining)})


def run_feasibility(instances, policy_name: str) -> list[bool]:
    """Per-instance feasibility flags in input order: `simulate`'s verdicts,
    from serial runs that build no schedule.

    Each run stops after the first busy stretch at whose end some session
    departs short of its demand: its remaining energy can no longer change,
    so the verdict is False, and no later slot is decided.
    """
    flags = []
    for inst in instances:
        require_valid(inst)
        sessions = inst.sessions
        flags.append(_meets_demand(sessions, _run(inst, policy_name, None),
                                   range(len(sessions))))
    return flags


def _meets_demand(sessions, remaining: list[float], positions) -> bool:
    """Whether each session at `positions` has at most `DEMAND_TOL` of its
    energy left, by position in `remaining`."""
    for k in positions:
        if remaining[k] > DEMAND_TOL * sessions[k].energy:
            return False
    return True


def _run(instance: Instance, policy_name: str, rows: list | None) -> list[float]:
    """The one slot loop of a run; returns its remaining energies by position.

    The run keeps its state by position: the remaining energies and, with
    `rows`, each session's (window start, row).  Each session's `_cells`
    entry is built once per run.  Only the slots of `Instance.busy_spans`
    are decided and charged, and each span's power is read once, at its
    first slot.

    A slot is decided only by the policy's kernel in `KERNELS`, looked up
    by name: sLLF, LLF, EDF, ES and REP through `_kernel_rates` on the
    span's cells, and OLP by `_olp`, which follows its plan where it holds
    every chargeable session; the run memory, one dict per run, keeps all
    that OLP keeps between slots: its plan, its failed residual and that
    residual's cut.  `schedulers.decide`, which direct callers ask by id,
    is not called, and neither is `POLICIES`.  Every slot's rates go
    through `_charge`.

    Any policy but OLP, whose plan or failed residual is asked at each
    slot, charges a span in one pass (`_charge_at_caps`) from the slot after
    one at the caps on, and EDF and ES (`REPEATING`) charge a contended
    slot's rates again at the slots after it (`_charge_repeats`) up to the
    slot that is decided next.  Without rows (None) the run stops after the
    first span [a, b) at whose end b some session departs short of its
    demand.
    """
    kernel = _named(KERNELS, policy_name)
    olp = kernel is KERNELS["olp"]
    repeats = kernel in REPEATING
    fill_key = FILL_KEYS.get(kernel)
    sessions, power = instance.sessions, instance.power
    remaining, memory = [s.energy for s in sessions], {}
    cells = _cells(sessions, range(len(sessions)))
    due = {}  # departure -> the positions of the sessions that depart there
    if rows is None:
        for k, s in enumerate(sessions):
            due.setdefault(s.departure, []).append(k)
    for a, b, positions in instance.busy_spans():
        span = [cells[k] for k in positions]
        ordered = sorted(span, key=fill_key) if fill_key is not None else None
        p_limit = power.at(a)  # the span's one power: its slots' powers compare equal
        t = a
        while t < b:
            if olp:
                charged, rates, _, _, _ = _olp(instance, span, remaining, t, memory)
            else:
                charged, rates, at_caps, _, _ = _kernel_rates(kernel, span, remaining, p_limit, t,
                                                              ordered)
            try:
                _charge(remaining, charged, rates, t, p_limit, rows)
            except ContractError as exc:
                raise PolicyContractError(str(exc)) from exc
            t += 1
            if not olp and at_caps:
                _charge_at_caps(span, remaining, rows, t, b)
                break
            if repeats and not at_caps:
                t = _charge_repeats(charged, rates, remaining, rows, t, b)
        if b in due and not _meets_demand(sessions, remaining, due[b]):
            break
    return remaining


def _charge_at_caps(span, remaining: list[float], rows: list | None, t: int, b: int) -> None:
    """Charge each session of the span's `_cells` at its cap over slots
    t ... b - 1, in place, as `_charge` would slot by slot: once sLLF,
    LLF, EDF, ES or REP gives every chargeable session its cap at a slot of
    a span, it would at every later slot, since the span has one power and
    one set of sessions, each cap `min(max_rate, remaining)` can only fall,
    finished sessions only drop out, and a float sum of fewer, smaller
    nonnegative terms in the same order is no larger.  A session charges
    while it is unfinished by `_live`'s rule, its peak rate while that fits,
    and then all it has left, to 0.0."""
    for n, max_rate, _, _, done, _ in span:
        rem, u = remaining[n], t
        if rows is None:
            while u < b and rem > done:
                rem = 0.0 if rem < max_rate else rem - max_rate
                u += 1
        else:
            start, row = rows[n]
            while u < b and rem > done:
                if rem < max_rate:
                    row[u - start], rem = rem, 0.0
                else:
                    row[u - start], rem = max_rate, rem - max_rate
                u += 1
        remaining[n] = rem


def _charge_repeats(cells, rates, remaining: list[float], rows: list | None, t: int,
                    b: int) -> int:
    """Charge `rates`, which EDF or ES gave the `_cells` `cells` at the
    contended slot t - 1 of a span, again at t, t + 1, ... up to b - 1, in
    place, as `_charge` would slot by slot; returns the first slot left to
    decide.  A slot repeats while every
    session of a rate above 0 has at least its peak rate left, so that its
    cap is that peak rate again, and more than its done level, so that it is
    still chargeable; a session of a rate at or below 0 keeps its energy and
    its cap.  Then the chargeable cells, their caps and the span's one power
    are those of slot t - 1, and so are the kernel's rates (`REPEATING`),
    their checks and their total.  Each session of a rate above 0 is charged
    min(r, peak rate), as `_charge` clamps r to that cap, which is at most
    its remaining energy, so none falls below 0.0."""
    charging = [(cell[0], cell[1], cell[4], cell[1] if cell[1] < r else r)
                for cell, r in zip(cells, rates) if r > 0.0]
    while t < b and all(remaining[n] >= max_rate and remaining[n] > done
                        for n, max_rate, done, _ in charging):
        for n, _, _, amount in charging:
            remaining[n] -= amount
            if rows is not None:
                start, row = rows[n]
                row[t - start] = amount
        t += 1
    return t


def success_rate(instances, policy_name: str) -> float:
    """Fraction of instances the policy completes feasibly."""
    if not instances:
        warnings.warn("success_rate over an empty corpus is vacuously 1.0")
        return 1.0
    flags = run_feasibility(instances, policy_name)
    return sum(flags) / len(flags)


def instance_metrics(instance: Instance) -> tuple[float, float]:
    """(max sojourn ratio, min normalized initial laxity) of an instance.

    Without sessions both are at the end of their range: (1.0, 1.0).
    """
    require_valid(instance)
    if not instance.sessions:
        return 1.0, 1.0
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
