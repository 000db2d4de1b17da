"""The six online rate-allocation policies.

Every policy maps (state, instance, t) to this slot's rates using only the
sessions present at t; future arrivals are never consulted.  sLLF, ES and REP
share one form: each rate is a clamp `clamp(a_i * (L - c_i), 0, cap_i)`, with
the water level L solved exactly by a breakpoint search so the available
power is used exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dynamics import SimState
from .feasibility import SINK, SOURCE, _build_network
from .model import ChargingSession, ContractError, Instance
from .netflow import FlowGraph

#: remaining energy below this fraction of the original demand counts as done
FINISHED_EPS = 1e-12


@dataclass
class RateDecision:
    """This slot's rates, the sLLF water-level (when applicable), and solver stats.

    The `diagnostics` keys, all optional, are:

    - `solver_steps` (sllf, es, rep): breakpoints the water-level search visited;
    - `olp_shipped` (olp): the energy a fresh solve shipped over its window;
    - `olp_plan_slot` (olp): the slot whose solve made the plan this decision
      follows; a decision without it was solved at its own slot;
    - `olp_fallback` (olp): True when the residual problem could not ship every
      remaining demand and the sLLF rates were taken;
    - `olp_unsolved` (olp): on a fallback decided without the per-slot solve,
      "checked" when one max-flow on the residual's interval network decided
      it and "skipped" when the run memory's failed residual did.
    """

    rates: dict[str, float]
    threshold: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _chargeable(state: SimState, instance: Instance, t: int) -> list[ChargingSession]:
    """Active sessions with unfinished demand, in instance order."""
    if state.t != t:
        raise ContractError(f"state at slot {state.t}, policy queried for {t}")
    remaining, out = state.remaining, []
    for s in instance.active_at(t):
        energy = s.energy  # max(1.0, energy) in plain compares, NaN alike: a hot loop
        if remaining[s.id] > FINISHED_EPS * (energy if energy > 1.0 else 1.0):
            out.append(s)
    return out


def _water_level(slopes, offsets, caps, p_limit: float) -> tuple[float, int]:
    """Level L with sum(clamp(a * (L - c), 0, cap)) == p_limit; also the breakpoints visited.

    The sum is piecewise linear and nondecreasing in L and bends only at c and
    c + cap / a, so one sorted sweep over those 2n breakpoints finds the
    segment holding p_limit, where one linear equation gives L (the
    continuous-knapsack breakpoint search).  L is +inf when the caps fit
    under p_limit and -inf when there is no power to share, NaN included.
    """
    if sum(caps) <= p_limit:
        return math.inf, 0
    if not p_limit > 0.0:
        return -math.inf, 0
    points = sorted([(c, a) for a, c in zip(slopes, offsets)]
                    + [(c + cap / a, -a) for a, c, cap in zip(slopes, offsets, caps)])
    level, total, slope = points[0][0], 0.0, 0.0
    for steps, (x, bend) in enumerate(points, 1):
        reach = total + slope * (x - level)
        if reach >= p_limit:
            return level + (p_limit - total) / slope, steps
        level, total, slope = x, reach, slope + bend
    # rounding left the full sum a hair under p_limit: every EV is at its cap
    return level, len(points)


def _sllf_fill(level: float, lax, caps, rbars) -> list[float]:
    return [
        min(max(rb * (level - lx + 1.0), 0.0), cap)
        for lx, cap, rb in zip(lax, caps, rbars)
    ]


def sllf_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Smoothed least-laxity-first: equalize next-slot laxities up to the caps."""
    evs = _chargeable(state, instance, t)
    remaining = state.remaining
    # `laxity`'s closed form: t lies inside each sojourn and every energy left is positive
    lax = [s.departure - t - remaining[s.id] / s.max_rate for s in evs]
    caps = [min(s.max_rate, remaining[s.id]) for s in evs]
    rbars = [s.max_rate for s in evs]
    level, steps = _water_level(rbars, [lx - 1.0 for lx in lax], caps, instance.power.at(t))
    rates = _sllf_fill(level, lax, caps, rbars)
    return RateDecision({s.id: r for s, r in zip(evs, rates)}, threshold=level,
                        diagnostics={"solver_steps": steps})


def _greedy_fill(evs, state, p_limit, key) -> dict[str, float]:
    rates = {}
    residual = p_limit
    for s in sorted(evs, key=key):
        r = min(s.max_rate, state.remaining[s.id], residual)
        r = max(r, 0.0)
        rates[s.id] = r
        residual -= r
    return rates


def llf_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Classic least-laxity-first: fill EVs in increasing laxity order."""
    evs = _chargeable(state, instance, t)
    remaining = state.remaining  # the laxity in `laxity`'s closed form, as in `sllf_rates`
    key = lambda s: (s.departure - t - remaining[s.id] / s.max_rate, s.arrival, s.id)
    return RateDecision(_greedy_fill(evs, state, instance.power.at(t), key))


def edf_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Earliest-deadline-first: fill EVs in increasing departure order."""
    evs = _chargeable(state, instance, t)
    key = lambda s: (s.departure, s.arrival, s.id)
    return RateDecision(_greedy_fill(evs, state, instance.power.at(t), key))


def _proportional_fill(evs, state: SimState, p_limit: float, weights) -> RateDecision:
    """Rates `clamp(w * L, 0, cap)`: the power shared in proportion to the weights."""
    caps = [min(s.max_rate, state.remaining[s.id]) for s in evs]
    level, steps = _water_level(weights, [0.0] * len(evs), caps, p_limit)
    return RateDecision({s.id: min(max(w * level, 0.0), cap)
                         for s, w, cap in zip(evs, weights, caps)},
                        diagnostics={"solver_steps": steps})


def es_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Equal share: every EV gets the same rate, clipped to its cap."""
    evs = _chargeable(state, instance, t)
    return _proportional_fill(evs, state, instance.power.at(t), [1.0] * len(evs))


def rep_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Remaining-energy-proportional sharing, clipped to the caps."""
    evs = _chargeable(state, instance, t)
    return _proportional_fill(evs, state, instance.power.at(t),
                              [state.remaining[s.id] for s in evs])


def residual_instance(state: SimState, instance: Instance, t: int) -> Instance:
    """The problem left at slot t: each chargeable session arrives at t and
    departs at its departure clipped to the horizon, with its remaining energy
    and peak rate, under the instance's power and horizon."""
    horizon, remaining = instance.horizon, state.remaining
    return Instance([ChargingSession(s.id, t, min(s.departure, horizon), remaining[s.id],
                                     s.max_rate) for s in _chargeable(state, instance, t)],
                    instance.power, horizon)


def _window_power(instance: Instance, t: int, end: int) -> list[float]:
    """P(t), ..., P(end - 1); a negative one is a `ContractError` naming its slot."""
    powers = [instance.power.at(tau) for tau in range(t, end)]
    for tau, p in enumerate(powers, t):
        if p < 0:
            raise ContractError(f"OLP: negative station power P({tau}) = {p} at slot {tau}")
    return powers


def _olp_fallback(state: SimState, instance: Instance, t: int, failed, unsolved=None):
    """The sLLF rates, with the sessions of the residual that could not ship
    (ids of the objects) kept in the run memory."""
    if state.memory is not None:
        state.memory["olp"] = None
        state.memory["olp_infeasible"] = (instance, failed)
    fallback = sllf_rates(state, instance, t)
    fallback.diagnostics["olp_fallback"] = True
    if unsolved:
        fallback.diagnostics["olp_unsolved"] = unsolved
    return fallback


def olp_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Front-load the residual problem: earliest-slot-first minimum-cost flow.

    The residual transportation network (current EVs, remaining demands,
    remaining horizon) has per-unit cost equal to the slot index on the
    slot -> sink arcs, so every augmenting path's cost is the index of the
    slot it exits through.  Opening the sink arcs one slot at a time and
    running blocking flow to exhaustion therefore performs successive
    shortest-path augmentation exactly.  The slot window ends at the last
    departure: a later slot has no arc in, so its flow could only be zero.

    A slot's arcs are added only when the slot opens.  A slot whose sink arc
    is still closed takes no flow, so its node is a dead-end leaf that sets
    no other node's level, and each session reaches it only after every open
    slot; the network of the open slots therefore yields the same augmenting
    paths, in the same order, as the whole window built at once.  The flow
    epsilon is unchanged too, because slot t's arcs already carry every
    session's peak rate.

    If the residual problem cannot ship all remaining demand, this slot falls
    back to the sLLF rates.  A negative power in the window is a
    `ContractError` naming its slot.

    In a run (`state.memory` set, as `simulate` sets it) a solve keeps its
    flow as a plan, each session's rates over the window, and later slots
    follow it until a chargeable session is one the plan does not hold
    (sessions are held by object, so a repeated id solves again), the window
    ends, or the solve fell back.  The rest of a min-cost flow stays min-cost
    for the residual problem it leaves (Ahuja, Magnanti & Orlin 1993, ch. 9),
    so a followed slot ships a fresh solve's slot total; only the split
    between sessions may differ, by max-flow tie-breaks.

    A fallback keeps instead the sessions of the residual that could not
    ship, and a later slot without a plan falls back at once while all of
    them are still chargeable: if the later residual could ship, the rates
    taken since, put in front of its schedule, would ship the failed one,
    and arrivals only add demand.  Once one of them has departed or
    finished, one max-flow on `residual_instance`'s interval network, whose
    value is the per-slot network's (Horn 1974), decides under the same
    criterion, and only a residual that ships is solved per slot.  A solve
    that ships forgets the failed residual.  Without run memory every slot
    is solved.
    """
    evs = _chargeable(state, instance, t)
    if not evs:
        return RateDecision({})
    memory = state.memory
    plan = memory.get("olp") if memory is not None else None
    if plan is not None:
        owner, start, end, planned = plan
        rows = [planned.get(id(s)) for s in evs]
        if owner is instance and start <= t < end and None not in rows:
            return RateDecision({s.id: row[t - start] for s, row in zip(evs, rows)},
                                diagnostics={"olp_plan_slot": start})
    horizon = instance.horizon
    stops = [min(s.departure, horizon) for s in evs]
    end = max(stops)
    powers = _window_power(instance, t, end)
    demand = 0.0
    for s in evs:
        demand += state.remaining[s.id]
    needed = demand - 1e-9 * max(1.0, demand)  # shipping less falls back
    held = frozenset(map(id, evs))
    failed = memory.get("olp_infeasible") if memory is not None else None
    if failed is not None and failed[0] is instance:
        if failed[1] <= held:
            return _olp_fallback(state, instance, t, failed[1], "skipped")
        g, _, _ = _build_network(residual_instance(state, instance, t))
        if g.max_flow(SOURCE, SINK) < needed:
            return _olp_fallback(state, instance, t, held, "checked")
    first_slot = 2 + len(evs)
    g = FlowGraph(first_slot + (end - t))
    for k, s in enumerate(evs):
        g.add_edge(SOURCE, 2 + k, state.remaining[s.id])
    arcs: list[list[int]] = [[] for _ in evs]
    shipped = 0.0
    for tau, p in enumerate(powers, t):
        node = first_slot + (tau - t)
        for k, stop in enumerate(stops):
            if stop > tau:
                arcs[k].append(g.add_edge(2 + k, node, evs[k].max_rate))
        g.add_edge(node, SINK, p)
        shipped += g.max_flow(SOURCE, SINK)
    if shipped < needed:
        return _olp_fallback(state, instance, t, held)
    rows = [[g.flow_on(idx) for idx in column] for column in arcs]
    if memory is not None:  # keyed by identity; the instance keeps those objects alive
        memory["olp"] = (instance, t, end, {id(s): row for s, row in zip(evs, rows)})
        memory.pop("olp_infeasible", None)
    return RateDecision({s.id: (row[0] if row else 0.0) for s, row in zip(evs, rows)},
                        diagnostics={"olp_shipped": shipped})


POLICIES = {
    "sllf": sllf_rates,
    "llf": llf_rates,
    "edf": edf_rates,
    "es": es_rates,
    "rep": rep_rates,
    "olp": olp_rates,
}


def get_policy(name: str):
    try:
        return POLICIES[name]
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; valid: {', '.join(sorted(POLICIES))}")
