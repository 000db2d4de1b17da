"""Blocking-flow maximum flow on graphs with real-valued capacities.

Residual capacities below a scale-aware epsilon are treated as exhausted,
which keeps the level-graph phases finite despite floating-point arithmetic.
Capacities may be raised between `max_flow` calls; a later call continues
augmenting on top of the existing flow, which is what the earliest-slot-first
minimum-cost routine in `schedulers` relies on.
"""
from __future__ import annotations

from collections import deque


class FlowGraph:
    def __init__(self, n: int):
        self.n = n
        # parallel arrays: to[], cap[] (residual), paired arc = idx ^ 1
        self.to: list[int] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self._initial: list[float] = []

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
        return idx

    def raise_capacity(self, idx: int, cap: float) -> None:
        """Increase a forward arc's capacity to `cap` (flow already sent is kept)."""
        extra = cap - self._initial[idx]
        if extra < 0:
            raise ValueError("capacities may only be raised")
        self._initial[idx] = cap
        self.cap[idx] += extra

    def flow_on(self, idx: int) -> float:
        """Flow currently routed through forward arc `idx`."""
        return self.cap[idx ^ 1]

    def max_flow(self, s: int, t: int) -> float:
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

    def source_side(self, s: int) -> list[bool]:
        """Residual reachability from `s`: after `max_flow`, the source side of a min cut."""
        return [lv >= 0 for lv in self._levels(s, self._eps())]

    def _eps(self) -> float:
        return 1e-12 * max(1.0, max(self._initial, default=0.0))

    def _levels(self, s: int, eps: float) -> list[int]:
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

    def _augment(self, u, t, limit, level, it, eps) -> float:
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
