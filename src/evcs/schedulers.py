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

from .dynamics import SimState, laxity
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
      remaining demand and the sLLF rates were taken.
    """

    rates: dict[str, float]
    threshold: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _chargeable(state: SimState, instance: Instance, t: int) -> list[ChargingSession]:
    """Active sessions with unfinished demand, in instance order."""
    if state.t != t:
        raise ContractError(f"state at slot {state.t}, policy queried for {t}")
    out = []
    for s in instance.active_at(t):
        if state.remaining[s.id] > FINISHED_EPS * max(1.0, s.energy):
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
    lax = [laxity(s, t, state.remaining[s.id]) for s in evs]
    caps = [min(s.max_rate, state.remaining[s.id]) for s in evs]
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
    key = lambda s: (laxity(s, t, state.remaining[s.id]), s.arrival, s.id)
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
    between sessions may differ, by max-flow tie-breaks.  Without run memory
    every slot is solved.
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
    source, sink = 0, 1
    first_slot = 2 + len(evs)
    g = FlowGraph(first_slot + (end - t))
    demand = 0.0
    for k, s in enumerate(evs):
        rem = state.remaining[s.id]
        demand += rem
        g.add_edge(source, 2 + k, rem)
    arcs: list[list[int]] = [[] for _ in evs]
    shipped = 0.0
    for tau in range(t, end):
        node = first_slot + (tau - t)
        for k, stop in enumerate(stops):
            if stop > tau:
                arcs[k].append(g.add_edge(2 + k, node, evs[k].max_rate))
        p = instance.power.at(tau)
        if p < 0:
            raise ContractError(f"OLP: negative station power P({tau}) = {p} at slot {tau}")
        g.add_edge(node, sink, p)
        shipped += g.max_flow(source, sink)
    if shipped < demand - 1e-9 * max(1.0, demand):
        if memory is not None:
            memory["olp"] = None
        fallback = sllf_rates(state, instance, t)
        fallback.diagnostics["olp_fallback"] = True
        return fallback
    rows = [[g.flow_on(idx) for idx in column] for column in arcs]
    if memory is not None:  # keyed by identity; the instance keeps those objects alive
        memory["olp"] = (instance, t, end, {id(s): row for s, row in zip(evs, rows)})
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
