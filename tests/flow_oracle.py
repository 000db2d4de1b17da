"""Reference max-flow and OLP: recursive blocking flow over the full horizon.

`RecursiveFlowGraph` labels every reachable node in each phase, walks
augmenting paths by recursion from the source, and recomputes the epsilon
from every arc's capacity on each call.  `full_horizon_olp_rates` builds
every arc up to the instance horizon before the first max-flow and runs a
max-flow for every slot, past the last departure too.
`evcs.netflow.FlowGraph` and `evcs.schedulers.olp_rates`, which adds a
slot's arcs only when the slot opens and stops at the last departure, skip
only work that cannot move flow, so they must return the same floats.
"""
from collections import deque

from evcs.schedulers import RateDecision, _chargeable, sllf_rates


class RecursiveFlowGraph:
    def __init__(self, n):
        self.n = n
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(n)]
        self._initial = []

    def add_edge(self, u, v, cap):
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self._initial.append(cap)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0.0)
        self._initial.append(0.0)
        self.adj[v].append(idx + 1)
        return idx

    def raise_capacity(self, idx, cap):
        extra = cap - self._initial[idx]
        if extra < 0:
            raise ValueError("capacities may only be raised")
        self._initial[idx] = cap
        self.cap[idx] += extra

    def flow_on(self, idx):
        return self.cap[idx ^ 1]

    def max_flow(self, s, t):
        eps = self._eps()
        total = 0.0
        while True:
            level = self._levels(s, eps)
            if level[t] < 0:
                return total
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, float("inf"), level, it, eps)
                if pushed <= 0.0:
                    break
                total += pushed

    def source_side(self, s):
        return [lv >= 0 for lv in self._levels(s, self._eps())]

    def _eps(self):
        return 1e-12 * max(1.0, max(self._initial, default=0.0))

    def _levels(self, s, eps):
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for idx in self.adj[u]:
                v = self.to[idx]
                if level[v] < 0 and self.cap[idx] > eps:
                    level[v] = level[u] + 1
                    q.append(v)
        return level

    def _augment(self, u, t, limit, level, it, eps):
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            idx = self.adj[u][it[u]]
            v = self.to[idx]
            if self.cap[idx] > eps and level[v] == level[u] + 1:
                pushed = self._augment(v, t, min(limit, self.cap[idx]), level, it, eps)
                if pushed > 0.0:
                    self.cap[idx] -= pushed
                    self.cap[idx ^ 1] += pushed
                    return pushed
            it[u] += 1
        level[u] = -1
        return 0.0


def full_horizon_olp_rates(state, instance, t):
    evs = _chargeable(state, instance, t)
    if not evs:
        return RateDecision({})
    horizon = instance.horizon
    source, sink = 0, 1
    g = RecursiveFlowGraph(2 + len(evs) + (horizon - t))
    slot_node = lambda tau: 2 + len(evs) + (tau - t)
    demand = 0.0
    column_arcs = {}
    for k, s in enumerate(evs):
        rem = state.remaining[s.id]
        demand += rem
        g.add_edge(source, 2 + k, rem)
        for tau in range(t, min(s.departure, horizon)):
            idx = g.add_edge(2 + k, slot_node(tau), s.max_rate)
            if tau == t:
                column_arcs[s.id] = idx
    sink_arcs = [g.add_edge(slot_node(tau), sink, 0.0) for tau in range(t, horizon)]
    shipped = 0.0
    for tau, idx in zip(range(t, horizon), sink_arcs):
        g.raise_capacity(idx, instance.power.at(tau))
        shipped += g.max_flow(source, sink)
    if shipped < demand - 1e-9 * max(1.0, demand):
        fallback = sllf_rates(state, instance, t)
        fallback.diagnostics["olp_fallback"] = True
        return fallback
    rates = {s.id: (g.flow_on(column_arcs[s.id]) if s.id in column_arcs else 0.0)
             for s in evs}
    return RateDecision(rates, diagnostics={"olp_shipped": shipped})
