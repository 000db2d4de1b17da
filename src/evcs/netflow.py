"""Blocking-flow maximum flow on graphs with real-valued capacities.

An arc counts as exhausted once its residual is at most `ARC_TOL` of its
own capacity, or 0 if that is not positive; its paired arc shares the
tolerance.  That keeps the level-graph phases finite despite floating-point
arithmetic, whatever the capacities span; cap an arc at what can cross it.
Capacities may be raised between `max_flow` calls; a later call continues
augmenting on top of the existing flow, which is what the Newton steps of
`feasibility.min_power_capacity` rely on.

Each phase labels levels by a BFS that stops at the sink's level, since only
nodes below it can lie on a shortest path to the sink, then finds augmenting
paths by an iterative depth-first walk over current arcs with an explicit arc
stack, so path length is not bounded by the recursion limit.

`earliest_exit_flow` is a minimum-cost flow for networks whose only priced
arcs enter the sink, as OLP's slot network is: successive shortest paths
from the flow the graph holds.  Each path is the one a breadth-first search
from the source would find, but the search runs only when that path has more
than two free arcs: the nodes one arc from the source labels, kept per solve,
and one scan of the exit's in-arcs give a path of one or two free arcs, and
show when no residual arc but the sink's enters the exit's node, so that
nothing can reach it and it is passed over.
"""
from __future__ import annotations

ARC_TOL = 1e-12  # an arc's tolerance, relative to its capacity


class FlowGraph:
    def __init__(self, n: int):
        self.n = n
        # parallel arrays: to[], cap[] (residual), tol[], paired arc = idx ^ 1
        self.to: list[int] = []
        self.cap: list[float] = []
        self.tol: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self._initial: list[float] = []
        self.source_levels: list[int] = []  # see `max_flow`

    def add_edge(self, u: int, v: int, cap: float, flow: float = 0.0) -> int:
        """Arc u -> v of capacity `cap` that already carries `flow`; returns its index."""
        idx = len(self.to)
        tol = ARC_TOL * cap if cap > 0.0 else 0.0
        self.to.append(v)
        self.cap.append(cap - flow)
        self.tol.append(tol)
        self._initial.append(cap)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(flow)
        self.tol.append(tol)
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
        self.tol[idx] = self.tol[idx ^ 1] = ARC_TOL * cap if cap > 0.0 else 0.0

    def flow_on(self, idx: int) -> float:
        """Flow currently routed through forward arc `idx`."""
        return self.cap[idx ^ 1]

    def max_flow(self, s: int, t: int) -> float:
        """Flow added from `s` to `t`.  Its last level search reaches no `t`, so it
        labels all that `s` reaches: kept as `source_levels`, >= 0 on a min cut's source side."""
        adj, to, cap, tol = self.adj, self.to, self.cap, self.tol
        total = 0.0
        while True:
            level = self._levels(s, t)
            if level[t] < 0:
                self.source_levels = level
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
                        if cap[a] <= tol[a]:
                            break
                    u = to[a ^ 1]
                    del path[k:]
                arcs, nxt = adj[u], level[u] + 1
                i, end = it[u], len(arcs)
                while i < end:
                    a = arcs[i]
                    if cap[a] > tol[a] and level[to[a]] == nxt:
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

    def earliest_exit_flow(self, s: int, exits: list[int]) -> tuple[float, int]:
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
        per-arc tolerance as in `max_flow`.  The flow the graph holds at the
        start must be of minimum cost for what each node ships; no flow is.

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
        adj, to, cap, tol, n = self.adj, self.to, self.cap, self.tol, self.n
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

    def source_side(self, s: int) -> list[bool]:
        """Residual reachability from `s`: after `max_flow`, what `source_levels` already holds."""
        return [lv >= 0 for lv in self._levels(s)]

    def _levels(self, s: int, t: int = -1) -> list[int]:
        """BFS levels over residual arcs, -1 where unreached.

        With a sink `t`, the search stops when it labels `t` and keeps only
        the levels below t's; t = -1 labels every node reachable from `s`.
        """
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        adj, to, cap, tol = self.adj, self.to, self.cap, self.tol
        for u in queue:
            nxt = level[u] + 1
            for idx in adj[u]:
                v = to[idx]
                if level[v] < 0 and cap[idx] > tol[idx]:
                    level[v] = nxt
                    if v == t:
                        level = [lv if lv < nxt else -1 for lv in level]
                        level[t] = nxt
                        return level
                    queue.append(v)
        return level
