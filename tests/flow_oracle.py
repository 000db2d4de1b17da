"""Reference max-flow, OLP and feasibility network, one node per slot.

`RecursiveFlowGraph` labels every reachable node in each phase and walks
augmenting paths by recursion from the source; an arc counts as exhausted,
as in `evcs.netflow.FlowGraph`, when its residual is at most `ARC_TOL` of
the pair's capacity, and `FlowGraph.max_flow` must return the same floats.
`full_horizon_olp_rates` builds every arc up to the instance horizon, then
raises one slot's sink arc at a time and runs a max-flow after each, past
the last departure too: earliest-slot-first minimum-cost flow by blocking
flow.  `evcs.schedulers.decide("olp", ...)` solves the same problem by successive
shortest paths, from the plan it follows in a run, so it must fall back on
the same slots and ship the same slot totals, up to the flow tolerance; the
split between sessions may differ.

`add_flowing_edge` adds a `FlowGraph` arc that already carries a flow, and
`source_side` reads a `FlowGraph`'s residual reachability; `evcs` needs
neither since OLP solves on rows and `min_power_capacity` reads the
max-flow's `source_levels`.
`add_edge_network` is the interval network built arc by arc, which
`feasibility._build_network`'s copies of one shared network must equal.
`slot_offline_feasible` and `slot_min_power_capacity` decide feasibility on
the time-expanded network with one node and one sink arc per slot and one
arc per (session, slot), and rebuild it for every Newton step.
`evcs.feasibility` merges the slots between event points into one interval
node, which keeps the max-flow value; the floats may differ in the last
digits, and the witness spreads each interval's flow evenly.

Every flow here ships the demand when each session's source arc has at most
`DEMAND_TOL` of its energy left, the rule `validate_schedule` judges a
delivered energy by; OLP's residual is judged by the sessions' energies,
not by what remains of them.  As in `evcs`, a session's arcs into the slots
are capped at its demand, so their tolerance follows the demand's scale.
"""
import math
from collections import deque

from evcs.dynamics import Schedule, _cells
from evcs.feasibility import DEMAND_TOL, SINK, SOURCE
from evcs.model import ContractError
from evcs.netflow import ARC_TOL, FlowGraph
from evcs.schedulers import RateDecision, _live, decide


def add_flowing_edge(g, u, v, cap, flow):
    """Arc u -> v of capacity `cap` in the `FlowGraph` `g` that already
    carries `flow`; returns its index."""
    idx = g.add_edge(u, v, cap)
    g.cap[idx], g.cap[idx ^ 1] = cap - flow, flow
    return idx


def source_side(g, s):
    """Residual reachability from `s` in the `FlowGraph` `g`: after
    `max_flow`, what its `source_levels` already holds."""
    return [lv >= 0 for lv in g._levels(s)]


class RecursiveFlowGraph:
    def __init__(self, n):
        self.n = n
        self.to = []
        self.cap = []
        self.tol = []
        self.adj = [[] for _ in range(n)]
        self._initial = []

    def add_edge(self, u, v, cap):
        idx = len(self.to)
        tol = max(ARC_TOL * cap, 0.0)
        self.to.append(v)
        self.cap.append(cap)
        self.tol.append(tol)
        self._initial.append(cap)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0.0)
        self.tol.append(tol)
        self._initial.append(0.0)
        self.adj[v].append(idx + 1)
        return idx

    def raise_capacity(self, idx, cap):
        extra = cap - self._initial[idx]
        if extra < 0:
            raise ValueError("capacities may only be raised")
        self._initial[idx] = cap
        self.cap[idx] += extra
        self.tol[idx] = self.tol[idx ^ 1] = max(ARC_TOL * cap, 0.0)

    def flow_on(self, idx):
        return self.cap[idx ^ 1]

    def max_flow(self, s, t):
        total = 0.0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return total
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, float("inf"), level, it)
                if pushed <= 0.0:
                    break
                total += pushed

    def source_side(self, s):
        return [lv >= 0 for lv in self._levels(s)]

    def _levels(self, s):
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for idx in self.adj[u]:
                v = self.to[idx]
                if level[v] < 0 and self.cap[idx] > self.tol[idx]:
                    level[v] = level[u] + 1
                    q.append(v)
        return level

    def _augment(self, u, t, limit, level, it):
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            idx = self.adj[u][it[u]]
            v = self.to[idx]
            if self.cap[idx] > self.tol[idx] and level[v] == level[u] + 1:
                pushed = self._augment(v, t, min(limit, self.cap[idx]), level, it)
                if pushed > 0.0:
                    self.cap[idx] -= pushed
                    self.cap[idx ^ 1] += pushed
                    return pushed
            it[u] += 1
        level[u] = -1
        return 0.0


def ships_every_demand(g, source_arcs, demands):
    return all(g.cap[a] <= DEMAND_TOL * d for a, d in zip(source_arcs, demands))


def chargeable(state, instance, t):
    """(active sessions with unfinished demand, their caps) at t, in instance
    order, by `schedulers._live`'s rule."""
    if state.t != t:
        raise ContractError(f"state at slot {state.t}, policy queried for {t}")
    active = instance.active_at(t)
    live, caps, _ = _live(_cells(active, [s.id for s in active]), state.remaining)
    return [cell[5] for cell in live], caps


def full_horizon_olp_rates(state, instance, t):
    evs = chargeable(state, instance, t)[0]
    if not evs:
        return RateDecision({})
    horizon = instance.horizon
    source, sink = 0, 1
    g = RecursiveFlowGraph(2 + len(evs) + (horizon - t))
    slot_node = lambda tau: 2 + len(evs) + (tau - t)
    source_arcs, window_arcs = [], []
    for k, s in enumerate(evs):
        rem = state.remaining[s.id]
        source_arcs.append(g.add_edge(source, 2 + k, rem))
        window_arcs.append([g.add_edge(2 + k, slot_node(tau), min(s.max_rate, rem))
                            for tau in range(t, min(s.departure, horizon))])
    sink_arcs = [g.add_edge(slot_node(tau), sink, 0.0) for tau in range(t, horizon)]
    for tau, idx in zip(range(t, horizon), sink_arcs):
        g.raise_capacity(idx, instance.power.at(tau))
        g.max_flow(source, sink)
    if not ships_every_demand(g, source_arcs, [s.energy for s in evs]):
        fallback = decide("sllf", state, instance, t)
        fallback.diagnostics["olp_fallback"] = True
        return fallback
    rates = {s.id: (g.flow_on(arcs[0]) if arcs else 0.0) for s, arcs in zip(evs, window_arcs)}
    return RateDecision(rates)


def add_edge_network(instance, power_override=None):
    """The interval network as `feasibility._build_network` built it before
    each instance's nodes and arcs were shared: every arc added by
    `add_edge`, the sink arcs at the power; returns (graph, session arcs,
    sink arcs)."""
    spans = list(instance.busy_spans())
    sessions = instance.sessions
    g = FlowGraph(2 + len(sessions) + len(spans))
    for k, s in enumerate(sessions):
        g.add_edge(SOURCE, 2 + k, s.energy)
    session_arcs = [[] for _ in sessions]
    sink_arcs = []
    for node, (a, b, members) in enumerate(spans, 2 + len(sessions)):
        length = b - a
        for k in members:
            cap, e = sessions[k].max_rate * length, sessions[k].energy
            session_arcs[k].append((a, b, g.add_edge(2 + k, node, cap if cap < e else e)))
        p = instance.power.at(a) if power_override is None else power_override
        sink_arcs.append((a, b, g.add_edge(node, SINK, p * length)))
    return g, session_arcs, sink_arcs


def slot_build_network(instance, power_override=None):
    """Time-expanded network; returns (graph, source, sink, session arc map, sink arcs,
    source arcs)."""
    n_sessions = len(instance.sessions)
    horizon = instance.horizon
    source, sink = 0, 1
    g = FlowGraph(2 + n_sessions + horizon)
    session_node = lambda k: 2 + k
    slot_node = lambda t: 2 + n_sessions + t
    window_arcs, source_arcs = {}, []
    for k, s in enumerate(instance.sessions):
        source_arcs.append(g.add_edge(source, session_node(k), s.energy))
        arcs = []
        for t in range(max(s.arrival, 0), min(s.departure, horizon)):
            arcs.append((t, g.add_edge(session_node(k), slot_node(t),
                                       min(s.max_rate, s.energy))))
        window_arcs[s.id] = arcs
    sink_arcs = []
    for t in range(horizon):
        p = power_override if power_override is not None else instance.power.at(t)
        sink_arcs.append(g.add_edge(slot_node(t), sink, p))
    return g, source, sink, window_arcs, sink_arcs, source_arcs


def slot_offline_feasible(instance, power_override=None):
    g, source, sink, window_arcs, _, source_arcs = slot_build_network(instance, power_override)
    g.max_flow(source, sink)
    if not ships_every_demand(g, source_arcs, [s.energy for s in instance.sessions]):
        return False, None
    rates = {}
    for s in instance.sessions:
        row = [0.0] * instance.horizon
        for t, idx in window_arcs[s.id]:
            row[t] = g.flow_on(idx)
        rates[s.id] = tuple(row)
    return True, Schedule(instance.horizon, rates)


def slot_min_power_capacity(instance):
    for s in instance.sessions:
        if not (math.isfinite(s.energy) and math.isfinite(s.max_rate)):
            raise ContractError(f"session {s.id} has non-finite energy or max rate")
        if s.energy > s.max_rate * s.sojourn:
            raise ContractError(f"session {s.id} individually unsatisfiable")
    demand = sum(s.energy for s in instance.sessions)
    p = 0.0
    while True:
        g, source, sink, _, sink_arcs, source_arcs = slot_build_network(instance, p)
        short = demand - g.max_flow(source, sink)
        if ships_every_demand(g, source_arcs, [s.energy for s in instance.sessions]):
            return p
        reach = source_side(g, source)
        k = sum(reach[g.to[idx ^ 1]] for idx in sink_arcs)  # the paired arc leads to the slot
        if k == 0:
            raise ContractError("no constant power ships the demand inside the horizon")
        p += max(short / k, 2 * ARC_TOL * p)  # a smaller raise a sink arc's tolerance hides
