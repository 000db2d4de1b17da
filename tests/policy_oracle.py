"""Frozen reference for the six policies.

The first functions below are sLLF, LLF, EDF, ES and REP and their helpers
as they stood before each contended slot became one walk per step (fused
scans, clamps written as plain compares, breakpoints sorted in place).  They
are kept verbatim, so `evcs.schedulers` must give the same decisions, float
for float: the same rates in the same key order, the same `threshold` and
the same `diagnostics`.  `REFERENCE_POLICIES` maps each policy name to its
reference.  Only their finished rule is the run's own, `sim_oracle.done_level`,
which finishes an energy under 1e-6 at `DEMAND_TOL` of itself.

`proportional_fill_kernel` and `llf_kernel` are ES and REP's shared rate
kernel and LLF's as they stood before they sorted floats in place of
tuples: each must return the same fill order, rates, threshold and solver
steps, or raise the same `ContractError`.

`olp_rates` and `earliest_exit_flow` are OLP and its solver as they stood
before a solve skipped the exits nothing can reach and stopped each search
once it labelled the exit it looks for, the second as a function over a
`FlowGraph`; `_olp_fallback` is OLP's fallback as it stood before OLP became
a rate kernel, on the current sLLF (`decide("sllf", ...)`), and
`residual_instance` the problem OLP leaves at a slot, as the per-policy
functions of `evcs.schedulers` built it.  OLP must give the same decisions
with the same diagnostics but `solver_steps`, which may be one fewer: a
solve no longer runs its last, empty search.  `searching_earliest_exit_flow`
is the solver with those two skips, as it stood before paths of at most two
free arcs were taken without a search, and `two_arc_earliest_exit_flow` the
solver with those paths, as it stood as a `FlowGraph` method before OLP
solved on its sessions' rows: each must leave the same residuals and return
the same flow and the same count as the one after it, and `netflow.SlotRows`
the same floats and count as the last on OLP's network.
"""
from __future__ import annotations

import math

from evcs.dynamics import SimState
from evcs.feasibility import SINK, SOURCE, is_offline_feasible, ships_demand
from evcs.model import ChargingSession, ContractError, Instance
from evcs.netflow import FlowGraph
from evcs.schedulers import RateDecision, _residual, _window_power, decide
from evcs.schedulers import _greedy_fill as _kernel_greedy_fill
from evcs.schedulers import _laxities as _kernel_laxities
from evcs.schedulers import _off_power, _share_exactly
from flow_oracle import add_flowing_edge
from flow_oracle import chargeable as _chargeable_with_caps
from sim_oracle import done_level


def _chargeable(state: SimState, instance: Instance, t: int) -> list[ChargingSession]:
    """Active sessions with unfinished demand, in instance order."""
    if state.t != t:
        raise ContractError(f"state at slot {state.t}, policy queried for {t}")
    remaining, out = state.remaining, []
    for s in instance.active_at(t):
        if remaining[s.id] > done_level(s):  # the run's finished rule
            out.append(s)
    return out


def _contention(state: SimState, instance: Instance, t: int):
    """(chargeable sessions, their caps, P(t), the caps by id or None).

    Each cap is min(max_rate, remaining) in plain compares, NaN alike (a hot
    loop).  The caps by id, in instance order, are returned when their sum in
    that order is at most P(t), and None otherwise, a NaN power included: in
    such an uncontended slot sLLF, LLF, EDF, ES and REP each give every
    session its cap, so each decides it here first (with `threshold=inf`).
    """
    evs, remaining, caps = _chargeable(state, instance, t), state.remaining, []
    for s in evs:
        max_rate, rem = s.max_rate, remaining[s.id]
        caps.append(rem if rem < max_rate else max_rate)
    p_limit = instance.power.at(t)
    at_caps = {s.id: cap for s, cap in zip(evs, caps)} if sum(caps) <= p_limit else None
    return evs, caps, p_limit, at_caps


def _water_level(slopes, offsets, caps, p_limit: float) -> tuple[float, int]:
    """Level L with sum(clamp(a * (L - c), 0, cap)) == p_limit; also the breakpoints visited.

    The sum is piecewise linear and nondecreasing in L and bends only at c and
    c + cap / a, so one sorted sweep over those 2n breakpoints finds the
    segment holding p_limit, where one linear equation gives L (the
    continuous-knapsack breakpoint search).  The caps sum to more than
    p_limit (`_contention` decides every slot where they fit); L is -inf when
    there is no power to share, NaN included.
    """
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


def _laxities(evs, remaining: dict[str, float], t: int) -> list[float]:
    """Each session's laxity at t in `laxity`'s closed form: t lies inside
    each sojourn and every energy left is positive.  A peak rate of 0, which
    `validate` rejects, is a `ContractError` naming the session and the slot."""
    try:
        return [s.departure - t - remaining[s.id] / s.max_rate for s in evs]
    except ZeroDivisionError:
        sid = next(s.id for s in evs if s.max_rate == 0.0)
        raise ContractError(
            f"session {sid} has peak rate 0 at slot {t}: its laxity is undefined") from None


def sllf_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Smoothed least-laxity-first: equalize next-slot laxities up to the caps."""
    evs, caps, p_limit, uncontended = _contention(state, instance, t)
    if uncontended is not None:
        return RateDecision(uncontended, threshold=math.inf, diagnostics={"solver_steps": 0})
    lax = _laxities(evs, state.remaining, t)
    rbars = [s.max_rate for s in evs]
    level, steps = _water_level(rbars, [lx - 1.0 for lx in lax], caps, p_limit)
    rates = _sllf_fill(level, lax, caps, rbars)
    return RateDecision({s.id: r for s, r in zip(evs, rates)}, threshold=level,
                        diagnostics={"solver_steps": steps})


def _greedy_fill(evs, caps, p_limit, keys) -> dict[str, float]:
    """Each session in increasing `keys` order takes what its cap and the
    power left allow."""
    rates = {}
    residual = p_limit
    for k in sorted(range(len(evs)), key=keys.__getitem__):
        cap = caps[k]  # max(min(max_rate, remaining, residual), 0.0), NaN alike
        r = residual if residual < cap else cap
        if r < 0.0:
            r = 0.0
        rates[evs[k].id] = r
        residual -= r
    return rates


def llf_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Classic least-laxity-first: fill EVs in increasing laxity order."""
    evs, caps, p_limit, uncontended = _contention(state, instance, t)
    if uncontended is not None:
        return RateDecision(uncontended, threshold=math.inf)
    keys = [(lx, s.arrival, s.id) for s, lx in zip(evs, _laxities(evs, state.remaining, t))]
    return RateDecision(_greedy_fill(evs, caps, p_limit, keys))


def edf_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Earliest-deadline-first: fill EVs in increasing departure order."""
    evs, caps, p_limit, uncontended = _contention(state, instance, t)
    if uncontended is not None:
        return RateDecision(uncontended, threshold=math.inf)
    keys = [(s.departure, s.arrival, s.id) for s in evs]
    return RateDecision(_greedy_fill(evs, caps, p_limit, keys))


def _proportional_fill(state: SimState, instance: Instance, t: int, weight) -> RateDecision:
    """Rates `clamp(w * L, 0, cap)`, w = `weight(s)`: the power shared in
    proportion to the weights."""
    evs, caps, p_limit, uncontended = _contention(state, instance, t)
    if uncontended is not None:
        return RateDecision(uncontended, threshold=math.inf, diagnostics={"solver_steps": 0})
    weights = [weight(s) for s in evs]
    level, steps = _water_level(weights, [0.0] * len(evs), caps, p_limit)
    return RateDecision({s.id: min(max(w * level, 0.0), cap)
                         for s, w, cap in zip(evs, weights, caps)},
                        diagnostics={"solver_steps": steps})


def es_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Equal share: every EV gets the same rate, clipped to its cap."""
    return _proportional_fill(state, instance, t, lambda s: 1.0)


def rep_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Remaining-energy-proportional sharing, clipped to the caps."""
    return _proportional_fill(state, instance, t, lambda s: state.remaining[s.id])


def proportional_fill_kernel(caps, weights, p_limit: float):
    """(None, rates `clamp(w * L, 0, cap)`, None, solver steps): the power
    shared in proportion to the weights."""
    offsets = [0.0] * len(caps)
    level, steps = _water_level(weights, offsets, caps, p_limit)
    rates, total = [], 0.0
    for w, cap in zip(weights, caps):
        r = w * level
        r = 0.0 if 0.0 > r else r
        r = cap if cap < r else r
        rates.append(r)
        total += r
    if _off_power(total, caps, p_limit):
        rates = _share_exactly(weights, offsets, caps, p_limit)
    return None, rates, None, steps


def llf_kernel(cells, caps, rems, t: int, p_limit: float):
    """LLF's rate kernel: (fill order, rates, None, None) at a contended slot,
    filled in increasing (laxity, arrival, id) order."""
    lax = _kernel_laxities(cells, rems, t)[0]
    keys = [(lx, cell[5].arrival, cell[3]) for cell, lx in zip(cells, lax)]
    order = sorted(range(len(caps)), key=keys.__getitem__)
    return order, _kernel_greedy_fill(caps, p_limit, order), None, None


REFERENCE_POLICIES = {
    "sllf": sllf_rates,
    "llf": llf_rates,
    "edf": edf_rates,
    "es": es_rates,
    "rep": rep_rates,
}


def earliest_exit_flow(graph: FlowGraph, s: int, exits: list[int]) -> tuple[float, int]:
    """Minimum-cost flow from `s` when only the arcs `exits` carry a cost.

    The exits leave distinct nodes for one sink and cost more the later
    they are listed; every other arc is free.  Successive shortest paths
    (Ahuja, Magnanti & Orlin 1993, ch. 9) then augment along a path that
    leaves through the earliest exit with capacity left that the
    residual graph reaches from `s`, found by one search from `s` that
    never enters the sink.  Augmenting adds only arcs into nodes of the
    path, so no node becomes reachable that was not: the exit used never
    moves earlier.  An arc is exhausted by the same per-arc tolerance
    as in `max_flow`.  The flow the graph holds at the start must be of
    minimum cost for what each node ships; no flow is.
    Returns the flow added and the searches run.
    """
    adj, to, cap, tol = graph.adj, graph.to, graph.cap, graph.tol
    rank = [-1] * graph.n
    for r, a in enumerate(exits):
        rank[to[a ^ 1]] = r
    blank = [-1] * graph.n  # per node, the arc the search entered it by
    if exits:
        blank[to[exits[0]]] = -2  # the sink is never entered
    total, searches, lo, none = 0.0, 0, 0, len(exits)
    while lo < none:
        a = exits[lo]
        if cap[a] <= tol[a]:
            lo += 1
            continue
        searches += 1
        entry = blank[:]
        entry[s] = -2
        queue, best = [s], none
        for u in queue:
            r = rank[u]
            if lo <= r < best and cap[exits[r]] > tol[exits[r]]:
                best = r
                if r == lo:
                    break
            for a in adj[u]:
                v = to[a]
                if entry[v] == -1 and cap[a] > tol[a]:
                    entry[v] = a
                    queue.append(v)
        lo = best
        if lo == none:
            break
        path, v = [exits[lo]], to[exits[lo] ^ 1]
        while v != s:
            a = entry[v]
            path.append(a)
            v = to[a ^ 1]
        pushed = min([cap[a] for a in path])
        for a in path:
            cap[a] -= pushed
            cap[a ^ 1] += pushed
        total += pushed
    return total, searches


def searching_earliest_exit_flow(graph: FlowGraph, s: int, exits: list[int]) -> tuple[float, int]:
    """`earliest_exit_flow` that runs one search for every path it pushes along,
    skipping the exits whose node no residual arc enters (those from the sink
    aside) and stopping each search once it labels the exit it looks for.
    Returns the flow added and the searches run."""
    adj, to, cap, tol = graph.adj, graph.to, graph.cap, graph.tol
    rank = [-1] * graph.n
    for r, a in enumerate(exits):
        rank[to[a ^ 1]] = r
    blank = [-1] * graph.n  # per node, the arc the search entered it by
    sink = to[exits[0]] if exits else -1
    if exits:
        blank[sink] = -2  # the sink is never entered
    total, searches, lo, none = 0.0, 0, 0, len(exits)
    while True:
        while lo < none:  # the first exit with capacity whose node an arc enters
            a = exits[lo]  # the pair of each arc b out of its node enters it
            if cap[a] > tol[a] and any(cap[b ^ 1] > tol[b] for b in adj[to[a ^ 1]]
                                       if to[b] != sink):
                break
            lo += 1
        if lo == none:
            break
        searches += 1
        entry = blank[:]
        entry[s] = -2
        target, queue, best = to[exits[lo] ^ 1], [s], none
        for u in queue:
            r = rank[u]
            if lo < r < best and cap[exits[r]] > tol[exits[r]]:
                best = r
            for a in adj[u]:
                v = to[a]
                if entry[v] == -1 and cap[a] > tol[a]:
                    entry[v] = a
                    queue.append(v)
            if entry[target] >= 0:
                best = lo
                break
        lo = best
        if lo == none:
            break
        path, v = [exits[lo]], to[exits[lo] ^ 1]
        while v != s:
            a = entry[v]
            path.append(a)
            v = to[a ^ 1]
        pushed = min([cap[a] for a in path])
        for a in path:
            cap[a] -= pushed
            cap[a ^ 1] += pushed
        total += pushed
    return total, searches


def two_arc_earliest_exit_flow(graph: FlowGraph, s: int,
                               exits: list[int]) -> tuple[float, int]:
    """Minimum-cost flow from `s` when only the arcs `exits` carry a cost.

    The exits leave distinct nodes other than `s` for one sink and cost
    more the later they are listed; every other arc is free.  Successive
    shortest paths (Ahuja, Magnanti & Orlin 1993, ch. 9) then augment
    along a path that leaves through the earliest exit with capacity
    left that the residual graph reaches from `s`: the path of a
    breadth-first search from `s` that never enters the sink and stops
    once it labels the node x of that exit.  Augmenting adds only arcs
    into nodes of the path, so no node becomes reachable that was not:
    the exit used never moves earlier.  An arc is exhausted by the same
    per-arc tolerance as in `FlowGraph.max_flow`.  The flow the graph holds
    at the start must be of minimum cost for what each node ships; no flow is.

    The search runs only for paths of more than two free arcs.  Its
    first level is kept per solve: adjacency lists are in arc-index
    order, so it labels, in `adj[s]` order, each node a free arc from
    `s` enters, by the first such arc, and a node's entry arc is fixed
    once labelled.  If x is one of them, that arc is the path; else, if
    some of them have a free arc into x, the search labels x from the
    first of them, w, by w's first such arc: the path s -> w -> x.  A
    push changes only its first arc among the arcs out of `s`, so the
    level is found again only after a push exhausts that arc.  The same
    scan of x's in-arcs tells whether any residual arc enters x other
    than from the sink; if none does, x is not reached and, by the rule
    above, never will be, so its exit is passed over without a search,
    and a solve whose exits left are all such runs no last, empty one.
    Returns the flow added and the augmentations tried: one per push,
    and one for a last search that finds no path.
    """
    if not exits:
        return 0.0, 0
    adj, to, cap, tol, n = graph.adj, graph.to, graph.cap, graph.tol, graph.n
    rank = [-1] * n
    for r, a in enumerate(exits):
        rank[to[a ^ 1]] = r
    blank = [-1] * n  # per node, the arc the search entered it by
    sink = to[exits[0]]
    blank[sink] = -2  # the sink is never entered
    # the nodes the search labels from s: each one's place in that order
    # (n if not labelled, n + 1 for s and the sink) and its entry arc
    place, first, near, stale = [n] * n, blank[:], [], True
    place[s] = place[sink] = n + 1
    total, searches, lo, none = 0.0, 0, 0, len(exits)
    while lo < none:
        e = exits[lo]
        if not cap[e] > tol[e]:  # a NaN left too
            lo += 1
            continue
        if stale:  # only a push that exhausts its arc out of s changes them
            for v in near:
                place[v] = n
            near = []
            for a in adj[s]:
                v = to[a]
                if place[v] == n and cap[a] > tol[a]:
                    place[v], first[v] = len(near), a
                    near.append(v)
            stale = False
        x = to[e ^ 1]
        if place[x] < n:
            path = [e, first[x]]
        else:  # s -> w -> x, w the first labelled node with an arc b ^ 1 into x
            k = n + 1  # stays so if no residual arc enters x but from the sink
            for b in adj[x]:
                if place[to[b]] < k and cap[b ^ 1] > tol[b]:
                    k, via = place[to[b]], b
            if k < n:
                path = [e, via ^ 1, first[to[via]]]
            elif k > n:  # unreached, and by the rule above never reached
                lo += 1
                continue
            else:
                entry = blank[:]
                entry[s] = -2
                queue, best = [s], none
                for u in queue:
                    r = rank[u]
                    if lo < r < best and cap[exits[r]] > tol[exits[r]]:
                        best = r
                    for a in adj[u]:
                        v = to[a]
                        if entry[v] == -1 and cap[a] > tol[a]:
                            entry[v] = a
                            queue.append(v)
                    if entry[x] >= 0:
                        best = lo
                        break
                lo = best
                if lo == none:
                    searches += 1
                    break
                e = exits[lo]
                path, v = [e], to[e ^ 1]
                while v != s:
                    a = entry[v]
                    path.append(a)
                    v = to[a ^ 1]
        searches += 1
        pushed = min([cap[a] for a in path])
        for a in path:
            cap[a] -= pushed
            cap[a ^ 1] += pushed
        total += pushed
        stale = not cap[path[-1]] > tol[path[-1]]
    return total, searches


def residual_instance(state: SimState, instance: Instance, t: int) -> Instance:
    """The problem left at slot t (`schedulers._residual`) of the chargeable sessions of `state`."""
    evs = _chargeable_with_caps(state, instance, t)[0]
    return _residual(instance, evs, [state.remaining[s.id] for s in evs], t)


def _olp_fallback(state: SimState, instance: Instance, t: int, failed, unsolved=None):
    """The sLLF rates, with the sessions of the residual that could not ship
    (ids of the objects) kept in the run memory."""
    if state.memory is not None:
        state.memory["olp"] = None
        state.memory["olp_infeasible"] = (instance, failed)
    fallback = decide("sllf", state, instance, t)
    fallback.diagnostics["olp_fallback"] = True
    if unsolved:
        fallback.diagnostics["olp_unsolved"] = unsolved
    return fallback


def olp_rates(state: SimState, instance: Instance, t: int) -> RateDecision:
    """Front-load the residual problem: earliest-slot-first minimum-cost flow,
    following a solve's plan at later slots while it holds every chargeable
    session and falling back to sLLF where the residual cannot ship."""
    evs, caps = _chargeable_with_caps(state, instance, t)
    if not evs:
        return RateDecision({})
    memory = state.memory
    plan = memory.get("olp") if memory is not None else None
    start, planned = t, {}
    if plan is not None and plan[0] is instance and plan[1] <= t:
        _, start, end, planned = plan
        rows = [planned.get(id(s)) for s in evs]
        if t < end and None not in rows:
            return RateDecision({s.id: row[t - start] for s, row in zip(evs, rows)},
                                diagnostics={"olp_plan_slot": start})
    horizon = instance.horizon
    stops = [min(s.departure, horizon) for s in evs]
    end = max(stops)
    powers = _window_power(instance, t, end)
    held, energies = frozenset(map(id, evs)), [s.energy for s in evs]
    failed = memory.get("olp_infeasible") if memory is not None else None
    if failed is not None and failed[0] is instance:
        if failed[1] <= held:
            return _olp_fallback(state, instance, t, failed[1], "skipped")
        if not is_offline_feasible(residual_instance(state, instance, t), demands=energies):
            return _olp_fallback(state, instance, t, held, "checked")
    first_slot = 2 + len(evs)
    g = FlowGraph(first_slot + (end - t))
    loads, arcs, sources = [0.0] * (end - t), [], []
    for k, (s, stop, cap) in enumerate(zip(evs, stops, caps)):
        row = planned.get(id(s))
        row = row[t - start:] if row is not None else [0.0] * (stop - t)
        sources.append(add_flowing_edge(g, SOURCE, 2 + k, state.remaining[s.id], sum(row)))
        arcs.append([add_flowing_edge(g, 2 + k, first_slot + i, cap, f)
                     for i, f in enumerate(row)])
        for i, f in enumerate(row):
            loads[i] += f
    exits = [add_flowing_edge(g, first_slot + i, SINK, p, load)
             for i, (p, load) in enumerate(zip(powers, loads))]
    searches = earliest_exit_flow(g, SOURCE, exits)[1]
    if not ships_demand([g.cap[a] for a in sources], energies):
        return _olp_fallback(state, instance, t, held)
    rows = [[g.flow_on(idx) for idx in column] for column in arcs]
    if memory is not None:  # keyed by identity; the instance keeps those objects alive
        memory["olp"] = (instance, t, end, {id(s): row for s, row in zip(evs, rows)})
        memory.pop("olp_infeasible", None)
    return RateDecision({s.id: (row[0] if row else 0.0) for s, row in zip(evs, rows)},
                        diagnostics={"solver_steps": searches})
