"""Drives a policy over an instance slot by slot and scores the outcome.

Everything runs serially in the calling process.  `simulate` and
`run_feasibility` share one slot loop, `_run`; the corpus sweeps, the
augmentation search and the separation search read only verdicts, so they run
through `run_feasibility`, which stops each run once its verdict is settled.

The loop asks a kernel only where its rates are not known already.  Two
one-pass rules charge the rest: after a slot at the caps, the rest of its
busy span is charged at the caps (`_charge_at_caps`), and after a contended
EDF or ES slot, the same rates are charged while the chargeable sessions
and their caps repeat (`_charge_repeats`).  Both need a span with distinct
ids and peak rates above 0.
"""
from __future__ import annotations

import warnings

from .dynamics import DEMAND_TOL, RunVerdict, Schedule, _cells, _charge, _charge_ids, laxity
from .dynamics import step  # noqa: F401  kept: the benchmark's tracer wraps simulator.step
from .model import ContractError, Instance
from .schedulers import FILL_KEYS, KERNELS, REPEATING, _kernel_rates, _named, _olp


class PolicyContractError(ContractError):
    """A policy returned rates violating its stated invariants (a bug signal)."""


def simulate(instance: Instance, policy_name: str) -> tuple[Schedule, RunVerdict]:
    """Run one policy over the busy slots; deterministic for fixed inputs.

    Every busy slot is decided, checked and recorded (see `_run`).  Each row
    is a window over its sojourn clipped to [0, horizon), joined over an id,
    and records the rate that `_charge` applied at each slot.
    """
    ids, keys, starts, ends = _index(instance)
    rows = [(lo, [0.0] * (hi - lo)) for lo, hi in zip(starts, ends)]
    remaining = _run(instance, policy_name, ids, keys, ends, rows)
    schedule = Schedule(instance.horizon, {sid: tuple(row) for sid, (_, row) in zip(ids, rows)},
                        dict(zip(ids, starts)))
    verdict = _meets_demand(zip(instance.sessions, keys), remaining)
    return schedule, RunVerdict(verdict, dict(zip(ids, remaining)))


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
    flags = []
    for inst in instances:
        ids, keys, _, ends = _index(inst)
        flags.append(_meets_demand(zip(inst.sessions, keys),
                                   _run(inst, policy_name, ids, keys, ends, None)))
    return flags


def _index(instance: Instance) -> tuple[list[str], list[int], list[int], list[int]]:
    """(the distinct ids in order of first appearance, each session's id as
    its number in that list, and the starts and ends by number): a run
    keeps its remaining energies and rows by number, and each id's window,
    its sessions' sojourns clipped to [0, horizon) and joined, is its first
    slot and the slot after its last.  Each clip is `min(max(x, 0),
    horizon)` and each join a `min` or `max`, in plain compares (a loop
    over every session of a corpus)."""
    horizon, number, ids, keys, starts, ends = instance.horizon, {}, [], [], [], []
    for s in instance.sessions:
        sid, lo, hi = s.id, s.arrival, s.departure
        if lo < 0:
            lo = 0
        if lo > horizon:
            lo = horizon
        if hi < 0:
            hi = 0
        if hi > horizon:
            hi = horizon
        n = number.get(sid)
        if n is None:  # numbers come in order: 0, 1, ...
            n = number[sid] = len(ids)
            ids.append(sid)
            starts.append(lo)
            ends.append(hi)
        else:
            if lo < starts[n]:
                starts[n] = lo
            if hi > ends[n]:
                ends[n] = hi
        keys.append(n)
    return ids, keys, starts, ends


def _meets_demand(pairs, remaining: list[float]) -> bool:
    """Whether each (session, id number) of `pairs` has at most `DEMAND_TOL`
    of the session's energy left under its number."""
    for s, n in pairs:
        if not remaining[n] <= DEMAND_TOL * s.energy:  # NaN fails too
            return False
    return True


def _run(instance: Instance, policy_name: str, ids: list[str], keys: list[int],
         ends: list[int], rows: list | None) -> list[float]:
    """The one slot loop of a run; returns its remaining energies by id number.

    The run keeps its state by position: each session's id is its number
    `keys[k]` (`_index`), which indexes the remaining energies, the window
    `ends` and, with `rows`, each id's (window start, row).  Each session's
    `_cells` entry is built once per run.  Only the slots of
    `Instance.busy_spans` are decided and charged, so `P(t)` is never read
    at an idle slot (a negative one there is left to `validate`); each
    span's power is read once, at its first slot.

    A slot is decided only by the policy's kernel in `KERNELS`, looked up
    by name: sLLF, LLF, EDF, ES and REP through `_kernel_rates` on the
    span's cells, and OLP by `_olp`, which follows its plan where it holds
    every chargeable session; the run memory keeps OLP's plan and failed
    residual, and `cut` its last failed cut.  `schedulers.decide`, which
    direct callers ask by id, is not called, and neither is `POLICIES`.
    Every slot's rates go through `_charge`: positional rates directly,
    where the span's ids are unique, and by id through `_charge_ids`
    otherwise.

    In a span whose ids are distinct and whose peak rates are above 0, any
    policy but OLP, whose plan or failed residual is asked at each slot,
    charges the span in one pass (`_charge_at_caps`) from the slot after
    one at the caps on, and EDF and ES (`REPEATING`) charge a contended
    slot's rates again at the slots after it (`_charge_repeats`) up to the
    slot that is decided next.  Without rows (None) the run stops after the
    first span [a, b) at whose end b some id's window closes with a session
    of that id short of its demand: an id is charged only while one of its
    sessions is active.
    """
    kernel = _named(KERNELS, policy_name)
    olp = kernel is KERNELS["olp"]
    fill_key = FILL_KEYS.get(kernel)
    sessions, power = instance.sessions, instance.power
    # each id's energy is that of its last session, as in `initial_state`
    remaining, memory, cut = list({s.id: s.energy for s in sessions}.values()), {}, None
    cells = _cells(sessions, keys)
    unique = len(ids) == len(sessions)
    positive = all(cell[1] > 0.0 for cell in cells)  # then so is each span's every peak rate
    due = {}  # window end -> the (session, id number) pairs whose id's window ends there
    if rows is None:
        for s, n in zip(sessions, keys):
            due.setdefault(ends[n], []).append((s, n))
    for a, b, positions in instance.busy_spans():
        span = [cells[k] for k in positions]
        ordered = sorted(span, key=fill_key) if fill_key is not None else None
        active = None if unique else {cell[3]: cell for cell in span}  # each active id's cell
        distinct = active is None or len(active) == len(span)
        p_limit = power.at(a)  # the span's one power: its slots' powers compare equal
        one_pass = not olp and distinct and (positive or all(cell[1] > 0.0 for cell in span))
        repeats = one_pass and kernel in REPEATING
        t = a
        while t < b:
            if olp:
                charged, rates, _, _, _, cut = _olp(instance, span, remaining, t, memory, cut)
            else:
                charged, rates, at_caps, _, _ = _kernel_rates(kernel, span, remaining, p_limit, t,
                                                              ordered)
            try:
                if distinct:
                    _charge(remaining, charged, rates, t, p_limit, rows)
                else:
                    _charge_ids(remaining, {cell[3]: r for cell, r in zip(charged, rates)},
                                active, t, p_limit, rows)
            except ContractError as exc:
                raise PolicyContractError(str(exc)) from exc
            t += 1
            if one_pass and at_caps:
                _charge_at_caps(span, remaining, rows, t, b)
                break
            if repeats and not at_caps:
                t = _charge_repeats(charged, rates, remaining, rows, t, b)
        if b in due and not _meets_demand(due[b], remaining):
            break
    return remaining


def _charge_at_caps(span, remaining: list[float], rows: list | None, t: int, b: int) -> None:
    """Charge each session of the span's `_cells` at its cap over slots
    t ... b - 1, in place, as `_charge` would slot by slot: once sLLF,
    LLF, EDF, ES or REP gives every chargeable session its cap at a slot of
    a span, it would at every later slot, since the span has one power and
    one set of sessions, each cap `min(max_rate, remaining)` can only fall,
    finished sessions only drop out, and a float sum of fewer, smaller
    nonnegative terms in the same order is no larger.  That needs each
    id's remaining energy to be its one session's and every cap above 0,
    so `_run` guards a span with a repeated id or a peak rate that is not
    above 0 (NaN included).  A session charges while it is unfinished by
    `_live`'s rule, its peak rate while that fits, and then all it
    has left, to 0.0."""
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
    contended slot t - 1 of a span with distinct ids and peak rates above 0,
    again at t, t + 1, ... up to b - 1, in place, as `_charge` would slot by
    slot; returns the first slot left to decide.  A slot repeats while every
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
