"""Blocking-flow maximum flow on graphs with real-valued capacities.

Residual capacities below a scale-aware epsilon are treated as exhausted,
which keeps the level-graph phases finite despite floating-point arithmetic.
Capacities may be raised between `max_flow` calls; a later call continues
augmenting on top of the existing flow, which is what the earliest-slot-first
minimum-cost routine in `schedulers` relies on.

Each phase labels levels by a BFS that stops at the sink's level, since only
nodes below it can lie on a shortest path to the sink, then finds augmenting
paths by an iterative depth-first walk over current arcs with an explicit arc
stack, so path length is not bounded by the recursion limit.
"""
from __future__ import annotations


class FlowGraph:
    def __init__(self, n: int):
        self.n = n
        # parallel arrays: to[], cap[] (residual), paired arc = idx ^ 1
        self.to: list[int] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self._initial: list[float] = []
        self._top = 0.0  # max(self._initial), kept as arcs are added and raised

    def add_edge(self, u: int, v: int, cap: float) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self._initial.append(cap)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0.0)
        self._initial.append(0.0)
        self.adj[v].append(idx + 1)
        if cap > self._top:
            self._top = cap
        return idx

    def raise_capacity(self, idx: int, cap: float) -> None:
        """Increase a forward arc's capacity to `cap` (flow already sent is kept)."""
        extra = cap - self._initial[idx]
        if extra < 0:
            raise ValueError("capacities may only be raised")
        self._initial[idx] = cap
        self.cap[idx] += extra
        if cap > self._top:
            self._top = cap

    def flow_on(self, idx: int) -> float:
        """Flow currently routed through forward arc `idx`."""
        return self.cap[idx ^ 1]

    def max_flow(self, s: int, t: int) -> float:
        eps = self._eps()
        adj, to, cap = self.adj, self.to, self.cap
        total = 0.0
        while True:
            level = self._levels(s, eps, t)
            if level[t] < 0:
                return total
            it = [0] * self.n
            path: list[int] = []  # arcs from s to u along current arcs
            u = s
            while True:
                if u == t:
                    pushed = min([cap[a] for a in path])
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    total += pushed
                    # back up to the tail of the first arc this push exhausted:
                    # the walk from s would retrace the arcs before it
                    for k, a in enumerate(path):
                        if cap[a] <= eps:
                            break
                    u = to[a ^ 1]
                    del path[k:]
                arcs, nxt = adj[u], level[u] + 1
                i, end = it[u], len(arcs)
                while i < end:
                    a = arcs[i]
                    if cap[a] > eps and level[to[a]] == nxt:
                        break
                    i += 1
                it[u] = i
                if i < end:
                    path.append(a)
                    u = to[a]
                    continue
                level[u] = -1  # dead end for the rest of this phase
                if not path:
                    break
                u = to[path.pop() ^ 1]
                it[u] += 1

    def source_side(self, s: int) -> list[bool]:
        """Residual reachability from `s`: after `max_flow`, the source side of a min cut."""
        return [lv >= 0 for lv in self._levels(s, self._eps())]

    def _eps(self) -> float:
        return 1e-12 * max(1.0, self._top)

    def _levels(self, s: int, eps: float, t: int = -1) -> list[int]:
        """BFS levels over residual arcs, -1 where unreached.

        With a sink `t`, the search stops when it labels `t` and keeps only
        the levels below t's; t = -1 labels every node reachable from `s`.
        """
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        adj, to, cap = self.adj, self.to, self.cap
        for u in queue:
            nxt = level[u] + 1
            for idx in adj[u]:
                v = to[idx]
                if level[v] < 0 and cap[idx] > eps:
                    level[v] = nxt
                    if v == t:
                        level = [lv if lv < nxt else -1 for lv in level]
                        level[t] = nxt
                        return level
                    queue.append(v)
        return level
