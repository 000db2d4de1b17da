"""The six online rate-allocation policies.

Every policy maps (state, instance, t) to this slot's rates using only the
sessions present at t; future arrivals are never consulted.  sLLF, ES and REP
share one form: each rate is a clamp `clamp(a_i * (L - c_i), 0, cap_i)`, with
the water level L solved exactly by a breakpoint search so the available
power is used exactly; rates that would miss P(t) by more than `_charge`'s
tolerance, as next to a huge peak rate, are taken again from L's segment
(`_share_exactly`).

sLLF, LLF, EDF, ES and REP are each a rate kernel, `kernel(cells, caps,
rems, t, p_limit)` -> (fill order or None, rates, threshold, solver steps or
None), on the chargeable sessions' `_cells` and their caps and remaining
energies as aligned lists, with the rates aligned with the cells (or with
the fill order).  `_kernel_rates` holds the rule for all five.  OLP's
kernel, `_olp`, takes the same cells and the run memory that keeps its
plan.  `KERNELS` maps each policy name to its kernel; a run calls only
these, on the cells and power of the busy span it holds, keyed by id
number, and skips the slots whose rates it knows: after a slot at the caps,
and after a contended slot of EDF or ES, whose decision depends on nothing
but the chargeable cells in fill order, their caps and P(t) (`REPEATING`),
while those repeat.  A direct caller asks `decide(name, state, instance,
t)`, which calls the same kernel on the cells of the state's slot, keyed by
id, and returns a `RateDecision`; `POLICIES` holds it for each name as a
function of `(SimState, Instance, t)`.  No run calls `decide`.

A contended slot walks its sessions once per step: one scan for the
chargeable cells and their caps, one for each policy's keys, slopes or
weights, one sort, and one fill into the rates, whose plain compares keep
`min(max(x, 0.0), cap)`'s results, -0.0 and NaN included.

LLF, ES and REP sort one float key per session, stably, into the order
of the tuples it stands for.  LLF sorts its laxities, a run of equal ones
by (arrival, id).  ES and REP's breakpoints start at 0.0, so the starts
come first, in increasing weight, and leave the total at 0.0; only the
ends cap / w are sorted, and a run of equal ends, which adds no reach past
its first, leaves the slope in decreasing weight, as (end, -w) orders it.
A slot with a NaN or infinite laxity, weight or end, or a weight or end
not above 0, which only an instance that `validate` rejects gives, keeps
the tuple sort (`_water_level` for ES and REP): no float sort gives its
order on NaN.  sLLF sorts its breakpoints as tuples.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .dynamics import RATE_TOL, SimState, _cells
from .feasibility import DEMAND_TOL, failed_cut, residual_cut_capacity, ships_demand
from .model import ChargingSession, ContractError, Instance
from .netflow import SlotRows


@dataclass
class RateDecision:
    """This slot's rates, the sLLF water-level (when applicable), and solver stats.

    `rates` is written in the one walk that computes it, so a repeated id
    keeps its first place and its last rate.  `threshold == inf` means every
    chargeable session at its cap, for each of sLLF, LLF, EDF, ES and REP
    (`_kernel_rates`).

    The `diagnostics` keys, all optional, are:

    - `solver_steps` (sllf, es, rep): breakpoints the water-level search visited;
      (olp) the augmentations `netflow.SlotRows.solve` tried in a solve that
      ships: one per augmenting path, whether a search found it or the path
      source -> session -> slot was taken without one, and one for a last
      search that finds no path; a fallback carries the sLLF decision's;
    - `olp_plan_slot` (olp): the slot whose solve made the plan this decision
      follows, which `_olp` returns as "followed"; a decision without it was
      solved at its own slot;
    - `olp_fallback` (olp): True when the residual problem could not ship every
      remaining demand, by the rule of `feasibility.ships_demand`, and the
      sLLF rates were taken;
    - `olp_unsolved` (olp): on a fallback decided without a solve,
      "checked" when the residual was checked again (`_recheck`) and
      "skipped" when the run memory's failed residual decided it.
    """

    rates: dict[str, float]
    threshold: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _live(cells, remaining) -> tuple[list, list[float], list[float]]:
    """(the `_cells` with unfinished demand, their caps and remaining
    energies) among `cells` in the given order, in one scan: unfinished
    while remaining > the done level, cap min(max_rate, remaining), both in
    plain compares, NaN alike (a hot loop)."""
    live, caps, rems = [], [], []
    for cell in cells:
        rem = remaining[cell[0]]
        if rem > cell[4]:
            live.append(cell)
            rems.append(rem)
            max_rate = cell[1]
            caps.append(rem if rem < max_rate else max_rate)
    return live, caps, rems


def _kernel_rates(kernel, cells, remaining, p_limit: float, t: int, ordered=None):
    """(cells, rates, at the caps, threshold, solver steps or None) at slot t
    of the policy with rate kernel `kernel`, for the `_cells` of its active
    sessions in instance order, their remaining energies by key in
    `remaining`, under P(t) = `p_limit`.  The rates are aligned with the
    cells returned, the chargeable ones in the order `_charge` sums them.

    The caps are given when their `sum()` (which compensates from Python
    3.12 on) is at most P(t): in such an uncontended slot sLLF, LLF, EDF, ES
    and REP each give every chargeable session its cap (True,
    `threshold=inf`, 0 steps).  A contended slot, a NaN power included, is
    the kernel's (False).  A negative P(t) is a `ContractError` naming its slot.

    A kernel with a fixed fill order (`FILL_KEYS`) is given its chargeable
    cells in that order: those of `ordered`, the cells sorted by its key
    (stably, as a run sorts each busy span's once), or sorted here.
    """
    live, caps, rems = _live(cells, remaining)
    if p_limit < 0.0:
        raise ContractError(f"negative station power P({t}) = {p_limit} at slot {t}")
    if sum(caps) <= p_limit:
        return live, caps, True, math.inf, 0
    if kernel in FILL_KEYS:
        if ordered is None:
            ordered = sorted(cells, key=FILL_KEYS[kernel])
        live, caps, rems = _live(ordered, remaining)
    order, rates, threshold, steps = kernel(live, caps, rems, t, p_limit)
    if order is not None:
        live = [live[j] for j in order]
    return live, rates, False, threshold, steps


def _water_level(slopes, offsets, caps, p_limit: float) -> tuple[float, int]:
    """Level L with sum(clamp(a * (L - c), 0, cap)) == p_limit; also the breakpoints visited.

    The sum is piecewise linear and nondecreasing in L and bends only at c and
    c + cap / a, so one sorted sweep over those 2n breakpoints finds the
    segment holding p_limit, where one linear equation gives L (the
    continuous-knapsack breakpoint search; the breakpoints, starts first, are
    sorted in place).  The caps sum to more than p_limit (`_kernel_rates`
    decides every slot where they fit); L is -inf when there is no power to
    share, NaN included.
    """
    if not p_limit > 0.0:
        return -math.inf, 0
    points = [(c, a) for a, c in zip(slopes, offsets)]
    points += [(c + cap / a, -a) for a, c, cap in zip(slopes, offsets, caps)]
    points.sort()
    level, total, slope = points[0][0], 0.0, 0.0
    for steps, (x, bend) in enumerate(points, 1):
        reach = total + slope * (x - level)
        if reach >= p_limit:
            return level + (p_limit - total) / slope, steps
        level, total, slope = x, reach, slope + bend
    # rounding left the full sum a hair under p_limit: every EV is at its cap
    return level, len(points)


def _off_power(total: float, caps, p_limit: float) -> bool:
    """Whether rates summing to `total` in session order, as `_charge` sums
    them when ids are unique, miss p_limit by more than `_charge`'s
    tolerance, above or below, while every cap is a number (`_charge`
    refuses the rate under a NaN cap first)."""
    return abs(total - p_limit) > RATE_TOL * max(1.0, p_limit) and all(c == c for c in caps)


def _share_exactly(slopes, offsets, caps, p_limit: float) -> list[float]:
    """The rates clamp(a * (L - c), 0, cap), for a slot where those taken
    from `_water_level`'s L miss p_limit by more than `_charge`'s tolerance:
    a * (L - c) scales the rounding of L by a, which next to a peak rate of
    1e10 is too much, and the sweep's running slope can lose a small slope
    beside a huge one.

    Here L = x + delta, x the highest breakpoint at which the clamps, summed
    directly, stay below p_limit (a bisection, as the sum is nondecreasing),
    and delta what p_limit leaves over the slopes of the sessions whose
    segment [c, c + cap / a) holds x.  A session starting after x gets 0,
    one whose segment ends at or before x its cap (there a * (x - c) can
    round a hair under the cap, and a huge slope taken as free would take
    up delta only to lose it to the cap), and the others
    min(a * ((x - c) + delta), cap), where x - c rounds once and is exact
    for nearby values (Sterbenz); every term is at most p_limit, so the
    rates sum to it within a few roundings.
    """
    ends = [c + cap / a for a, c, cap in zip(slopes, offsets, caps)]

    def clamps(x):
        return [0.0 if c > x else cap if x >= end else min(a * (x - c), cap)
                for a, c, cap, end in zip(slopes, offsets, caps, ends)]
    points = sorted({*offsets, *ends})
    lo, hi = 0, len(points)  # the clamps sum below p_limit at points[lo], not at points[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum(clamps(points[mid])) < p_limit:
            lo = mid
        else:
            hi = mid
    x = points[lo]
    rates = clamps(x)
    free = [c <= x < end for c, end in zip(offsets, ends)]
    slope = sum(a for a, f in zip(slopes, free) if f)
    if slope > 0.0:
        delta = (p_limit - sum(rates)) / slope
        rates = [min(a * ((x - c) + delta), cap) if f else r
                 for a, c, cap, r, f in zip(slopes, offsets, caps, rates, free)]
    return rates


def _laxities(cells, rems, t: int):
    """(laxities at t, peak rates, laxities - 1.0) of the sessions of
    `_cells`, in one scan, each laxity in `laxity`'s closed form: t lies
    inside each sojourn and every energy left (`rems`) is positive.  A peak
    rate of 0 is a `ContractError` naming session and slot."""
    lax, rbars, offsets = [], [], []
    try:
        for cell, rem in zip(cells, rems):
            rb = cell[1]
            lx = cell[5].departure - t - rem / rb
            lax.append(lx)
            rbars.append(rb)
            offsets.append(lx - 1.0)
    except ZeroDivisionError:
        raise ContractError(
            f"session {cell[3]} has peak rate 0 at slot {t}: its laxity is undefined") from None
    return lax, rbars, offsets


def _sllf(cells, caps, rems, t: int, p_limit: float):
    """sLLF's rate kernel: (None, rates, water level, solver steps) at a contended slot."""
    lax, rbars, offsets = _laxities(cells, rems, t)
    level, steps = _water_level(rbars, offsets, caps, p_limit)
    rates, total = [], 0.0
    for lx, rb, cap in zip(lax, rbars, caps):
        r = rb * (level - lx + 1.0)  # not level - (lx - 1.0), which rounds differently
        r = 0.0 if 0.0 > r else r
        r = cap if cap < r else r
        rates.append(r)
        total += r
    if _off_power(total, caps, p_limit):
        rates = _share_exactly(rbars, offsets, caps, p_limit)
    return None, rates, level, steps


def _tie_sorted(keys, tie) -> list[int]:
    """The indices of the float `keys` in increasing key order, each run of
    equal keys in increasing `tie(j)` order, as stable as `sorted`."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if len(set(keys)) < len(keys):
        i, n = 0, len(order)
        while i < n:
            x, j = keys[order[i]], i + 1
            while j < n and keys[order[j]] == x:
                j += 1
            if j - i > 1:
                order[i:j] = sorted(order[i:j], key=tie)
            i = j
    return order


def _greedy_fill(caps, p_limit, order) -> list[float]:
    """The rates in `order`, indices into `caps`: each session in turn takes
    what its cap and the power left allow."""
    rates = []
    residual = p_limit
    for k in order:
        cap = caps[k]  # max(min(max_rate, remaining, residual), 0.0), NaN alike
        r = residual if residual < cap else cap
        if r < 0.0:
            r = 0.0
        rates.append(r)
        residual -= r
    return rates


def _llf(cells, caps, rems, t: int, p_limit: float):
    """LLF's rate kernel: (fill order, rates, None, None) at a contended slot,
    filled in increasing (laxity, arrival, id) order."""
    try:
        lax = [cell[5].departure - t - rem / cell[1] for cell, rem in zip(cells, rems)]
    except ZeroDivisionError:
        lax = _laxities(cells, rems, t)[0]  # raises, naming the session
    if math.isfinite(sum(lax)):
        order = _tie_sorted(lax, lambda j: (cells[j][5].arrival, cells[j][3]))
    else:
        keys = [(lx, cell[5].arrival, cell[3]) for cell, lx in zip(cells, lax)]
        order = sorted(range(len(caps)), key=keys.__getitem__)
    return order, _greedy_fill(caps, p_limit, order), None, None


def _edf_key(cell) -> tuple:
    """EDF's fill key of a cell: (departure, arrival, id)."""
    s = cell[5]
    return s.departure, s.arrival, s.id


def _edf(cells, caps, rems, t: int, p_limit: float):
    """EDF's rate kernel: (None, rates, None, None) at a contended slot,
    filled in the order of `cells`, which `_kernel_rates` sorts by `_edf_key`."""
    return None, _greedy_fill(caps, p_limit, range(len(caps))), None, None


def _proportional_level(weights, caps, p_limit: float) -> tuple[float, int]:
    """`_water_level` of the slopes `weights` at offsets 0.0."""
    if not p_limit > 0.0:
        return -math.inf, 0
    ends = [0.0 + cap / w for w, cap in zip(weights, caps)]
    ascending, slope = sorted(weights), 0.0
    for w in ascending:  # the starts, which leave the total at 0.0
        slope += w
    if not (ascending[0] > 0.0 and min(ends) > 0.0 and math.isfinite(slope + sum(ends))):
        return _water_level(weights, [0.0] * len(caps), caps, p_limit)
    n = len(ends)
    order = sorted(range(n), key=ends.__getitem__)
    level = total = 0.0
    i = 0
    while i < n:
        j = order[i]
        x = ends[j]
        reach = total + slope * (x - level)
        if reach >= p_limit:
            return level + (p_limit - total) / slope, n + i + 1
        r = i + 1
        while r < n and ends[order[r]] == x:
            r += 1
        if r == i + 1:
            slope -= weights[j]
        else:  # a run of equal ends
            for w in sorted([weights[k] for k in order[i:r]], reverse=True):
                slope -= w
        level, total, i = x, reach, r
    return level, 2 * n


def _proportional_fill(caps, weights, p_limit: float):
    """(None, rates `clamp(w * L, 0, cap)`, None, solver steps): the power
    shared in proportion to the weights."""
    level, steps = _proportional_level(weights, caps, p_limit)
    rates, total = [], 0.0
    for w, cap in zip(weights, caps):
        r = w * level
        r = 0.0 if 0.0 > r else r
        r = cap if cap < r else r
        rates.append(r)
        total += r
    if _off_power(total, caps, p_limit):
        rates = _share_exactly(weights, [0.0] * len(caps), caps, p_limit)
    return None, rates, None, steps


def _es(cells, caps, rems, t: int, p_limit: float):
    """ES's rate kernel at a contended slot: one weight for every session."""
    return _proportional_fill(caps, [1.0] * len(caps), p_limit)


def _rep(cells, caps, rems, t: int, p_limit: float):
    """REP's rate kernel at a contended slot: each remaining energy its weight."""
    return _proportional_fill(caps, rems, p_limit)


def _residual(instance: Instance, evs, rems, t: int) -> Instance:
    """The problem left at slot t: each session of `evs` arrives at t and
    departs at its departure clipped to the horizon, with its remaining
    energy (`rems`) and peak rate, under the instance's power and horizon."""
    horizon = instance.horizon
    return Instance([ChargingSession(s.id, t, min(s.departure, horizon), rem, s.max_rate)
                     for s, rem in zip(evs, rems)], instance.power, horizon)


def _window_power(instance: Instance, t: int, end: int) -> tuple[float, ...]:
    """P(t), ..., P(end - 1), read as one window; a negative one is a
    `ContractError` naming its slot.  The window is walked only when its
    `min()` is not at least 0: a negative power after a number lowers the
    min, and a leading NaN keeps it NaN."""
    powers = instance.power.window(t, end)
    if not min(powers, default=0.0) >= 0.0:
        for tau, p in enumerate(powers, t):
            if p < 0:
                raise ContractError(f"OLP: negative station power P({tau}) = {p} at slot {tau}")
    return powers


#: the relative margin by which a kept cut must miss the demand to decide a
#: failed residual without a max-flow, against the float error of either
CUT_MARGIN = 1e-9


def _recheck(instance: Instance, evs, rems, energies, cut, t: int, stops):
    """The cut that shows the residual at slot t (`_residual`) of the
    sessions `evs`, which depart at `stops`, cannot ship by `ships_demand`'s
    rule, as the sessions (ids of the objects) on its source side, or None
    when the residual ships.

    The run memory's `cut`, evaluated on this residual without building it
    (`residual_cut_capacity`), decides alone when its capacity is below the
    remaining energies less `DEMAND_TOL` of the demands by `CUT_MARGIN` of
    the remaining energies: a max-flow can ship no more than a cut lets
    through, so some session would be left more than its tolerance.
    Otherwise `is_offline_feasible`'s max-flow on the residual's interval
    network, whose value is the per-slot network's (Horn 1974), decides,
    and gives the cut of a failure."""
    if cut is not None:
        total = sum(rems)
        short = total - DEMAND_TOL * sum(energies) - CUT_MARGIN * total
        if residual_cut_capacity(instance.power, t, stops, rems, [s.max_rate for s in evs],
                                 [id(s) in cut for s in evs]) < short:
            return cut
    sourced = failed_cut(_residual(instance, evs, rems, t), energies)
    return None if sourced is None else frozenset(id(s) for s, on in zip(evs, sourced) if on)


def _olp(instance: Instance, cells, remaining, t: int, memory, cut=None):
    """OLP's rate kernel at slot t, for the `_cells` of its active sessions
    in instance order and their remaining energies by key in `remaining`:
    (cells, rates aligned with them, threshold, solver steps, how, cut).

    Where the run memory holds a plan whose rows cover every chargeable
    session (`_live`'s rule) at t, none included, OLP follows it: each
    one's row entry at t, None threshold and steps, how "followed", and the
    run memory and `cut` left as they are; a plan rate that breaks a check
    raises at its slot when it is charged.  A held session's row reaches
    its departure clipped to the horizon, so it covers each slot of its
    sojourn in the plan's window.  Without a plan, a slot with none
    chargeable gives no rates, how "solved".

    Elsewhere OLP front-loads the residual problem (`_residual`): its
    min-cost flow, each unit costing the index of the slot it leaves by, is
    solved by `netflow.SlotRows` on each chargeable session's row over its
    window (slot t to its departure clipped to the horizon, each arc capped
    at the session's cap; a later slot has no arc in, so the window ends at
    the last departure), and its slot-t flows are the rates, None the
    threshold, and how "solved".  A min-cost flow ships through slots t..tau
    together the most they can, for every tau, so its slot totals are
    unique.  A residual that leaves some session more than `DEMAND_TOL` of
    its energy unshipped (`ships_demand`, the rule its run is judged by)
    falls back to sLLF's rates, threshold and steps, how "fallback".  A
    negative power in the window is a `ContractError` naming its slot.

    `memory`, the run memory (None: none, and every slot is solved from no
    flow), keeps a solve that ships as the plan (instance, t, window end,
    each session's flow row by object, so a repeated id solves again), which
    later slots follow; a session the plan holds starts the next solve from
    its planned row, which stays min-cost for the residual problem it leaves
    (Ahuja, Magnanti & Orlin 1993, ch. 9).  A fallback keeps instead the
    sessions of the residual that could not ship, and falls back at once
    ("skipped") while all of them are chargeable: if the later residual
    could ship, the rates taken since, put in front of its schedule, would
    ship the failed one, and arrivals only add demand.  Once one has left,
    the new residual is checked again (`_recheck`, "checked"), given the
    kept `cut`; the cut returned is the one of the last failed check, or
    None after a solve that ships, which also forgets the failed residual.
    """
    plan = memory.get("olp") if memory is not None else None
    start, planned = t, {}
    if plan is not None and plan[0] is instance and plan[1] <= t:
        _, start, _, planned = plan
        at, held, rates = t - start, [], []
        for cell in cells:
            if remaining[cell[0]] > cell[4]:  # chargeable, by `_live`'s rule
                row = planned.get(id(cell[5]))
                if row is None or len(row) <= at:
                    break
                held.append(cell)
                rates.append(row[at])
        else:
            return held, rates, None, None, "followed", cut
    live, caps, rems = _live(cells, remaining)
    if not live:
        return live, caps, None, None, "solved", cut
    evs = [cell[5] for cell in live]
    warm = [planned.get(id(s)) for s in evs]
    horizon = instance.horizon
    stops = [min(s.departure, horizon) for s in evs]
    end = max(stops)
    powers = _window_power(instance, t, end)
    energies, how = [s.energy for s in evs], None
    failed = memory.get("olp_infeasible") if memory is not None else None
    if failed is not None and failed[0] is instance:
        held = frozenset(map(id, evs))
        if failed[1] <= held:
            how, held = "skipped", failed[1]
        else:
            checked = _recheck(instance, evs, rems, energies, cut, t, stops)
            if checked is not None:
                how, cut = "checked", checked
    if how is None:
        net = SlotRows(rems, caps, [stop - t for stop in stops], powers,
                       [row if row is None else row[t - start:] for row in warm])
        steps = net.solve()
        if ships_demand(net.supply_left, energies):
            if memory is not None:  # keyed by identity; the instance keeps those objects alive
                memory["olp"] = (instance, t, end, {id(s): row for s, row in zip(evs, net.flows)})
                memory.pop("olp_infeasible", None)
            return live, [row[0] if row else 0.0 for row in net.flows], None, steps, "solved", None
        how, held = "fallback", frozenset(map(id, evs))
    if memory is not None:
        memory["olp"] = None
        memory["olp_infeasible"] = (instance, held)
    charged, rates, _, threshold, steps = _kernel_rates(_sllf, cells, remaining,
                                                        instance.power.at(t), t)
    return charged, rates, threshold, steps, how, cut


#: the fill key of each rate kernel that fills in a fixed order, one that
#: cannot change inside a busy span (see `_kernel_rates`)
FILL_KEYS = {_edf: _edf_key}

#: the rate kernels whose contended decision depends only on the chargeable
#: cells in fill order, their caps and P(t): EDF's greedy fill and ES's equal
#: weights, unlike the laxities and remaining energies the others read, so a
#: run charges it again while those repeat (`simulator._charge_repeats`)
REPEATING = frozenset({_edf, _es})


#: each policy's rate kernel by name, the only functions a run calls
#: (`simulator._run`): OLP's `_olp`, and the others through `_kernel_rates`
KERNELS = {"sllf": _sllf, "llf": _llf, "edf": _edf, "es": _es, "rep": _rep, "olp": _olp}


def _named(table: dict, name: str):
    """`table[name]` of a table keyed by policy name, as `KERNELS` is; an
    unknown name is a KeyError that lists the table's names."""
    try:
        return table[name]
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; valid: {', '.join(sorted(table))}")


def decide(policy: str, state: SimState, instance: Instance, t: int) -> RateDecision:
    """The decision of the policy named `policy` at slot t, its rates by id,
    for a direct caller: the kernel a run calls (`KERNELS`) on the cells of
    the sessions active at t, keyed by id.  OLP keeps its plan and failed
    residual in `state.memory`, but no cut, so each failed residual is
    checked again by a max-flow.  An unknown name is `_named`'s KeyError,
    and a state at another slot a `ContractError`."""
    kernel = _named(KERNELS, policy)
    if state.t != t:
        raise ContractError(f"state at slot {state.t}, policy queried for {t}")
    active = instance.active_at(t)
    cells = _cells(active, [s.id for s in active])
    if policy != "olp":
        cells, rates, _, threshold, steps = _kernel_rates(
            kernel, cells, state.remaining, instance.power.at(t), t)
        diagnostics = {"solver_steps": steps} if policy in ("sllf", "es", "rep") else {}
    else:  # by its global name, not `kernel`, so that an `_olp` patched in here is called
        cells, rates, threshold, steps, how, _ = _olp(instance, cells, state.remaining, t,
                                                      state.memory)
        if not cells:
            return RateDecision({})
        if how == "followed":
            diagnostics = {"olp_plan_slot": state.memory["olp"][1]}
        else:
            diagnostics = {"solver_steps": steps}
            if how != "solved":
                diagnostics["olp_fallback"] = True
                if how != "fallback":
                    diagnostics["olp_unsolved"] = how
    return RateDecision({cell[3]: r for cell, r in zip(cells, rates)}, threshold, diagnostics)


#: each policy's `decide` as a function of `(state, instance, t)`, by name
POLICIES = {name: functools.partial(decide, name) for name in KERNELS}
