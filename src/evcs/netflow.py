"""Blocking-flow maximum flow on graphs with real-valued capacities.

An arc counts as exhausted once its residual is at most `ARC_TOL` of its
own capacity, or 0 if that is not positive; its paired arc shares the
tolerance.  That keeps the level-graph phases finite despite floating-point
arithmetic, whatever the capacities span; cap an arc at what can cross it.
Capacities may be raised between `max_flow` calls; a later call continues
augmenting on top of the existing flow, which is what the Newton steps of
`feasibility.min_power_capacity` rely on.  `copy` gives a graph of the same
arcs with residuals of its own, so one network serves many solves.

Each phase labels levels by a BFS that stops at the sink's level, since only
nodes below it can lie on a shortest path to the sink, then finds augmenting
paths by an iterative depth-first walk over current arcs with an explicit arc
stack, so path length is not bounded by the recursion limit.

`SlotRows` is OLP's minimum-cost flow by successive shortest paths, on a
row of floats per session over its window instead of a graph.
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

    def add_edge(self, u: int, v: int, cap: float) -> int:
        """Arc u -> v of capacity `cap` and no flow; returns its index."""
        idx = len(self.to)
        tol = ARC_TOL * cap if cap > 0.0 else 0.0
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

    def copy(self) -> "FlowGraph":
        """A graph of the same arcs whose residuals, tolerances and
        capacities are copies of these.  The structure, `to` and `adj`, is
        shared: no method but `add_edge` changes it, and no arc is added to
        a copy."""
        g = object.__new__(FlowGraph)
        g.n, g.to, g.adj, g.source_levels = self.n, self.to, self.adj, []
        g.cap, g.tol, g._initial = self.cap[:], self.tol[:], self._initial[:]
        return g

    def reset_arc(self, idx: int, cap: float) -> None:
        """Give forward arc `idx` capacity `cap` and no flow, as `add_edge` makes it."""
        self.cap[idx], self.cap[idx ^ 1], self._initial[idx] = cap, 0.0, cap
        self.tol[idx] = self.tol[idx ^ 1] = ARC_TOL * cap if cap > 0.0 else 0.0

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


class SlotRows:
    """OLP's network held as its sessions' rows, and its minimum-cost flow.

    A source feeds session k up to `supplies[k]`, and session k each slot of
    its window 0 .. `lengths[k]` - 1 up to `caps[k]`; slot i, to the end of
    the longest window, ships up to `powers[i]` at cost i a unit.  Session
    k's arcs are its rows `residuals[k]` and `flows[k]`, the paired arcs'
    residuals, under one tolerance; a row of `warm` is its flow already sent
    (None: none), kept and augmented.  The source and exit arcs keep their
    residuals, `supply_left` and `power_left`: the floats and tolerances a
    `FlowGraph` of the network would hold.
    """

    def __init__(self, supplies, caps, lengths, powers, warm):
        self.flows, self.residuals = flows, residuals = [], []
        self.supply_left, loads = list(supplies), None
        for k, (cap, length, row) in enumerate(zip(caps, lengths, warm)):
            if row is None:
                flows.append([0.0] * length)
                residuals.append([cap] * length)
            else:
                flows.append(row)
                residuals.append([cap - f for f in row])
                self.supply_left[k] -= sum(row)
                if loads is None:
                    loads = [0.0] * len(powers)
                loads[:len(row)] = [load + f for load, f in zip(loads, row)]
        self.tols = [ARC_TOL * c if c > 0.0 else 0.0 for c in caps]
        self.supply_tols = [ARC_TOL * c if c > 0.0 else 0.0 for c in supplies]
        # p - 0.0 is p, -0.0 and NaN included; equal powers have equal tolerances
        self.power_left = list(powers) if loads is None else [
            p - load for p, load in zip(powers, loads)]
        first = powers[0] if powers else 0.0
        self.power_tols = ([ARC_TOL * first if first > 0.0 else 0.0] * len(powers)
                           if powers.count(first) == len(powers) else
                           [ARC_TOL * p if p > 0.0 else 0.0 for p in powers])
        self.cover, members = [], list(range(len(lengths)))  # per slot, its sessions in order
        for stop in sorted(set(lengths)):
            self.cover += [members] * (stop - len(self.cover))
            members = [k for k in members if lengths[k] > stop]

    def solve(self) -> int:
        """Successive shortest paths (Ahuja, Magnanti & Orlin 1993, ch. 9)
        from a flow of minimum cost for what each session ships: each path
        leaves by the earliest slot with power left that a breadth-first
        search from the source reaches; augmenting adds only arcs into the
        path's nodes, so that slot never moves earlier.  A path source ->
        session -> slot, by the first session with supply left and a free
        arc into the slot, is taken without a search, and a slot that no
        arc enters is passed over.  Returns the pushes, plus one for a last
        search that finds no path.

        A slot's direct pushes are made in one scan of its sessions: a push
        spends the slot's power, the session's arc or its supply, and
        neither an arc nor a supply of a session before it can grow."""
        flows, residuals, tols, cover = self.flows, self.residuals, self.tols, self.cover
        supply, supply_tols = self.supply_left, self.supply_tols
        power, power_tols = self.power_left, self.power_tols
        sourced = [c > tol for c, tol in zip(supply, supply_tols)]
        n, steps, lo = len(power), 0, 0
        while lo < n:
            if not power[lo] > power_tols[lo]:  # a NaN left too
                lo += 1
                continue
            entered = False
            for w in cover[lo]:
                if not residuals[w][lo] > tols[w]:
                    continue
                if not sourced[w]:
                    entered = True
                    continue
                pushed = min(power[lo], residuals[w][lo], supply[w])
                residuals[w][lo] -= pushed
                flows[w][lo] += pushed
                steps += 1
                power[lo] -= pushed
                supply[w] -= pushed
                sourced[w] = supply[w] > supply_tols[w]
                if not power[lo] > power_tols[lo]:
                    break
                entered = entered or residuals[w][lo] > tols[w]  # its supply is spent
            else:
                if not entered:
                    lo += 1
                    continue
                lo, path, w = self._search(lo, sourced)
                if path is None:
                    return steps + 1
                pushed = min([power[lo]] + [row[i] for row, _, i in path] + [supply[w]])
                for row, paired, i in path:
                    row[i] -= pushed
                    paired[i] += pushed
                steps += 1
                power[lo] -= pushed
                supply[w] -= pushed
                sourced[w] = supply[w] > supply_tols[w]
        return steps

    def _search(self, x: int, sourced):
        """(slot x, or the earliest later slot with power left that the search
        reaches, or the slot count; the path's arcs from that slot back as
        (row, paired row, slot), or None; the path's first session).  It visits
        the source's and each slot's sessions in session order and a session's
        slots in slot order, as `FlowGraph`'s adjacency lists do, and stops at x."""
        flows, residuals, tols, cover = self.flows, self.residuals, self.tols, self.cover
        power, power_tols = self.power_left, self.power_tols
        n = best = len(power)
        entry = [-2 if yes else -1 for yes in sourced]  # the slot before it; -2: the source
        via = [-1] * n  # per slot, the session before
        layer = [k for k, yes in enumerate(sourced) if yes]
        while layer:
            slots = []
            for k in layer:
                tol = tols[k]
                for i, c in enumerate(residuals[k]):
                    if c > tol and via[i] < 0:
                        via[i] = k
                        slots.append(i)
                if via[x] >= 0:
                    best, slots = x, []
                    break
            layer = []
            for i in slots:
                if x < i < best and power[i] > power_tols[i]:
                    best = i
                for k in cover[i]:
                    if entry[k] == -1 and flows[k][i] > tols[k]:
                        entry[k] = i
                        layer.append(k)
        if best == n:
            return n, None, -1
        path, i = [], best
        while True:
            w = via[i]
            path.append((residuals[w], flows[w], i))
            i = entry[w]
            if i < 0:
                return best, path, w
            path.append((flows[w], residuals[w], i))
