import math
import random

import pytest

from evcs.netflow import FlowGraph, SlotRows

from flow_oracle import RecursiveFlowGraph, add_flowing_edge, source_side
from policy_oracle import earliest_exit_flow as frozen_earliest_exit_flow
from policy_oracle import searching_earliest_exit_flow, two_arc_earliest_exit_flow


class TestMaxFlow:
    def test_single_edge(self):
        g = FlowGraph(2)
        idx = g.add_edge(0, 1, 3.5)
        assert g.max_flow(0, 1) == pytest.approx(3.5)
        assert g.flow_on(idx) == pytest.approx(3.5)

    def test_series_bottleneck(self):
        g = FlowGraph(3)
        g.add_edge(0, 1, 5.0)
        g.add_edge(1, 2, 2.0)
        assert g.max_flow(0, 2) == pytest.approx(2.0)

    def test_parallel_paths(self):
        g = FlowGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 2.0)
        g.add_edge(1, 3, 3.0)
        g.add_edge(2, 3, 1.5)
        assert g.max_flow(0, 3) == pytest.approx(2.5)

    def test_requires_augmenting_path_reversal(self):
        # the greedy path 0->1->2->3 must be partially undone via residual arcs
        g = FlowGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(1, 3, 1.0)
        g.add_edge(2, 3, 1.0)
        assert g.max_flow(0, 3) == pytest.approx(2.0)

    def test_each_arc_is_exhausted_at_its_own_scale(self):
        # a tolerance of 1e-12 of the largest capacity, 1e288, would hide
        # both the 2 and the 3
        g = FlowGraph(4)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 2, 1e300)
        g.add_edge(2, 3, 3.0)
        assert g.max_flow(0, 3) == 2.0
        assert source_side(g, 0) == [True, False, False, False]

    def test_disconnected(self):
        g = FlowGraph(3)
        g.add_edge(0, 1, 1.0)
        assert g.max_flow(0, 2) == 0.0

    def test_incremental_capacity_raise(self):
        g = FlowGraph(3)
        g.add_edge(0, 1, 4.0)
        bottleneck = g.add_edge(1, 2, 1.0)
        assert g.max_flow(0, 2) == pytest.approx(1.0)
        # capacities are raised to an absolute target; sent flow is kept
        g.raise_capacity(bottleneck, 3.0)
        assert g.max_flow(0, 2) == pytest.approx(2.0)
        assert g.flow_on(bottleneck) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            g.raise_capacity(bottleneck, 1.0)

    def test_conservation_on_random_graphs(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(4, 8)
            g = FlowGraph(n)
            arcs = []
            for _ in range(rng.randint(6, 16)):
                u, v = rng.sample(range(n), 2)
                arcs.append((u, v, g.add_edge(u, v, rng.uniform(0.1, 3.0))))
            value = g.max_flow(0, n - 1)
            net = [0.0] * n
            for u, v, idx in arcs:
                f = g.flow_on(idx)
                assert f >= -1e-12
                net[u] -= f
                net[v] += f
            assert net[0] == pytest.approx(-value, abs=1e-9)
            assert net[n - 1] == pytest.approx(value, abs=1e-9)
            for node in range(1, n - 1):
                assert net[node] == pytest.approx(0.0, abs=1e-9)

    def test_source_side_is_a_min_cut(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(4, 8)
            g = FlowGraph(n)
            arcs = []
            for _ in range(rng.randint(6, 16)):
                u, v = rng.sample(range(n), 2)
                cap = rng.uniform(0.1, 3.0)
                g.add_edge(u, v, cap)
                arcs.append((u, v, cap))
            value = g.max_flow(0, n - 1)
            side = source_side(g, 0)
            assert side[0] and not side[n - 1]
            cut = sum(cap for u, v, cap in arcs if side[u] and not side[v])
            assert cut == pytest.approx(value, abs=1e-9)


def _random_graph_pair(rng):
    """The same random graph as a FlowGraph and as the reference; also its arc ids."""
    n = rng.randint(3, 14)
    g, ref = FlowGraph(n), RecursiveFlowGraph(n)
    scale = 10.0 ** rng.randint(-3, 3)
    arcs = []
    for _ in range(rng.randint(n, 4 * n)):
        u, v = rng.sample(range(n), 2)
        cap = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 3.0) * scale
        arcs.append(g.add_edge(u, v, cap))
        ref.add_edge(u, v, cap)
    return g, ref, arcs


class TestAgainstRecursiveOracle:
    def test_same_floats_under_capacity_raises(self):
        rng = random.Random(11)
        for _ in range(300):
            g, ref, arcs = _random_graph_pair(rng)
            s, t = 0, g.n - 1
            for _ in range(rng.randint(1, 6)):
                assert g.max_flow(s, t) == ref.max_flow(s, t)
                assert [g.flow_on(i) for i in arcs] == [ref.flow_on(i) for i in arcs]
                assert source_side(g, s) == ref.source_side(s)
                assert g.tol == ref.tol
                for idx in rng.sample(arcs, rng.randint(1, len(arcs))):
                    extra = rng.choice([0.0, rng.uniform(0.0, 2.0)]) * 10.0 ** rng.randint(-3, 4)
                    cap = ref._initial[idx] + extra
                    g.raise_capacity(idx, cap)
                    ref.raise_capacity(idx, cap)

    def test_long_chain_has_no_recursion_limit(self):
        n = 1500
        g = FlowGraph(n)
        for u in range(n - 1):
            g.add_edge(u, u + 1, 1.0 + u % 7)
        assert g.max_flow(0, n - 1) == 1.0
        assert source_side(g, 0) == [True] + [False] * (n - 1)


def _random_slot_network(seed, graph=FlowGraph, closed=False):
    """A random OLP-shaped network: source 0, sink 1, sessions, then slots in
    cost order, each with an exit to the sink, of capacity 0.0 if `closed`;
    returns (graph, source arcs, exits, exit capacities)."""
    rng = random.Random(seed)
    n, w = rng.randint(1, 6), rng.randint(1, 12)
    g = graph(2 + n + w)
    sources = []
    for k in range(n):
        sources.append(g.add_edge(0, 2 + k, rng.uniform(0.0, 6.0)))
        first, rate = rng.randint(0, w - 1), rng.uniform(0.1, 2.0)
        for i in range(first, w):
            g.add_edge(2 + k, 2 + n + i, rate)
    powers = [0.0 if rng.random() < 0.2 else rng.uniform(0.0, 3.0) for _ in range(w)]
    exits = [g.add_edge(2 + n + i, 1, 0.0 if closed else p) for i, p in enumerate(powers)]
    return g, sources, exits, powers


class TestEarliestExitFlow:
    def test_an_arc_can_start_with_flow(self):
        g = FlowGraph(3)
        first = add_flowing_edge(g, 0, 1, 2.0, 1.5)
        assert (g.flow_on(first), g.cap[first], g._initial[first]) == (1.5, 0.5, 2.0)
        assert g.tol[first] == g.tol[first ^ 1] == 2e-12  # 1e-12 of the arc's capacity
        g.add_edge(1, 2, 1.0)
        assert g.max_flow(0, 2) == 0.5  # what the first arc has left
        assert g.flow_on(first) == 2.0

    def test_exit_flows_are_those_of_opening_one_exit_at_a_time(self):
        # the reference raises each exit in turn and runs a max-flow, as OLP did
        searches = 0
        for seed in range(300):
            g, _, exits, _ = _random_slot_network(seed)
            ref, _, ref_exits, powers = _random_slot_network(seed, RecursiveFlowGraph, True)
            value = 0.0
            for a, p in zip(ref_exits, powers):
                ref.raise_capacity(a, p)
                value += ref.max_flow(0, 1)
            shipped, steps = two_arc_earliest_exit_flow(g, 0, exits)
            searches += steps
            assert shipped == pytest.approx(value, rel=1e-12, abs=1e-12)
            for a, b in zip(exits, ref_exits):
                assert g.flow_on(a) == pytest.approx(ref.flow_on(b), rel=1e-12, abs=1e-12)
        assert searches > 1000

    def test_a_warm_start_ships_what_a_cold_one_does(self):
        # a solve on part of each supply, then the rest on top of its flow
        for seed in range(300):
            cold, sources, exits, _ = _random_slot_network(seed)
            warm, _, _, _ = _random_slot_network(seed)
            rng = random.Random(seed)
            supplies = [warm._initial[a] for a in sources]
            for a, c in zip(sources, supplies):
                warm.cap[a] = warm._initial[a] = c * rng.choice([0.0, rng.random(), 1.0])
            first, _ = two_arc_earliest_exit_flow(warm, 0, exits)
            for a, c in zip(sources, supplies):
                warm.raise_capacity(a, c)
            more, _ = two_arc_earliest_exit_flow(warm, 0, exits)
            shipped, _ = two_arc_earliest_exit_flow(cold, 0, exits)
            assert first + more == pytest.approx(shipped, rel=1e-12, abs=1e-12)
            for a in exits:
                assert warm.flow_on(a) == pytest.approx(cold.flow_on(a), rel=1e-12, abs=1e-12)

    def test_an_exit_s_epsilon_ignores_the_exits_after_it(self):
        # 5e-12 is above 1e-12 * P(0) and below 1e-12 * P(1), but each arc
        # is exhausted only at 1e-12 of its own capacity, so no exit's
        # capacity hides it: the solve ships it through exit 0
        g = FlowGraph(5)
        g.add_edge(0, 2, 5e-12)
        g.add_edge(2, 3, 1.0)
        g.add_edge(2, 4, 1.0)
        exits = [g.add_edge(3, 1, 1.0), g.add_edge(4, 1, 10.0)]
        assert two_arc_earliest_exit_flow(g, 0, exits) == (5e-12, 2)
        assert [g.flow_on(a) for a in exits] == [5e-12, 0.0]

    def test_a_sliver_left_on_an_exit_is_still_used(self):
        # "a" leaves 2**-22 of exit 0, which "b" fills before using exit 1
        g = FlowGraph(6)
        g.add_edge(0, 2, 1.0 - 2.0 ** -22)
        g.add_edge(0, 3, 1.0)
        g.add_edge(2, 4, 1.0)
        g.add_edge(3, 4, 1.0)
        g.add_edge(3, 5, 1.0)
        exits = [g.add_edge(4, 1, 1.0), g.add_edge(5, 1, 1.0)]
        shipped, _ = two_arc_earliest_exit_flow(g, 0, exits)
        assert shipped == 2.0 - 2.0 ** -22
        assert [g.flow_on(a) for a in exits] == [1.0, 1.0 - 2.0 ** -22]

    def test_no_exits(self):
        g = FlowGraph(3)
        g.add_edge(0, 2, 1.0)
        assert two_arc_earliest_exit_flow(g, 0, []) == (0.0, 0)


def _random_exit_graph(seed):
    """A random graph for `two_arc_earliest_exit_flow` unlike OLP's slot network:
    source 0, sink 1, free arcs between any other pair of nodes, a fifth of
    them of capacity 0 and some carrying flow (a warm start), now and then an
    arc out of the sink, and exits to the sink from some nodes but the source
    in a random cost order; in about half the graphs the last node is
    entered by no free arc, so only its exit's reverse, from the sink, enters
    it once the exit carries flow.  Returns (graph, exits)."""
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    lonely = n - 1 if n > 3 and rng.random() < 0.5 else None
    g = FlowGraph(n)
    scale = 10.0 ** rng.randint(-3, 3)

    def arc(u, v):
        cap = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 3.0) * scale
        return add_flowing_edge(g, u, v, cap, cap * rng.choice([0.0, 0.0, rng.random(), 1.0]))

    inner = [0] + list(range(2, n))
    for _ in range(rng.randint(n, 4 * n)):
        u, v = rng.sample(inner, 2)
        if v != lonely:
            arc(u, v)
    for _ in range(rng.randint(0, 2)):
        arc(1, rng.randrange(2, n))
    exits = [arc(v, 1) for v in rng.sample(range(2, n), rng.randint(1, n - 2))]
    return g, exits


class TestAgainstFrozenEarliestExitFlow:
    def test_same_residual_arrays_bit_for_bit(self):
        # each graph is solved, has some capacities raised, and is solved again
        fewer = searches = 0
        for seed in range(400):
            g, exits = _random_exit_graph(seed)
            ref, _ = _random_exit_graph(seed)
            rng = random.Random(-seed)
            for _ in range(3):
                shipped, steps = two_arc_earliest_exit_flow(g, 0, exits)
                ref_shipped, ref_steps = frozen_earliest_exit_flow(ref, 0, exits)
                assert shipped.hex() == ref_shipped.hex(), seed
                assert steps in (ref_steps, ref_steps - 1), (seed, steps, ref_steps)
                assert list(map(float.hex, g.cap)) == list(map(float.hex, ref.cap)), seed
                fewer += steps < ref_steps
                searches += steps
                for idx in rng.sample(range(0, len(g.to), 2), rng.randint(0, len(g.to) // 4)):
                    cap = g._initial[idx] * rng.choice([1.0, 2.0]) + rng.uniform(0.0, 1.0)
                    g.raise_capacity(idx, cap)
                    ref.raise_capacity(idx, cap)
        assert fewer > 100 and searches > 1000, (fewer, searches)


def _olp_shape(rng):
    """Sessions (first slot, stop, rate cap, supplies of its source arcs) and
    slot powers for a network of OLP's shape: 1-40 sessions whose windows
    overlap, some with a rate cap or a supply of 0, some with two parallel
    arcs from the source, and powers of which some are 0 and a few NaN."""
    w = rng.randint(1, 24)
    sessions = []
    for _ in range(rng.randint(1, 40)):
        first = rng.randrange(w)
        stop = rng.randint(first + 1, w)
        rate = 0.0 if rng.random() < 0.1 else rng.uniform(0.1, 3.0)
        supply = 0.0 if rng.random() < 0.05 else rate * (stop - first) * rng.uniform(0.1, 1.2)
        split = rng.random()
        sessions.append((first, stop, rate,
                         [supply] if split < 0.7 else [supply * split, supply - supply * split]))
    load = sum(rate * (stop - first) for first, stop, rate, _ in sessions) / w
    powers = [0.0 if u < 0.15 else math.nan if u < 0.17 else rng.uniform(0.0, 1.2) * load
              for u in (rng.random() for _ in range(w))]
    return sessions, powers


def _olp_network(shape, arrived, flows=None):
    """The network of `shape`: source 0, sink 1, the sessions, then one node per
    slot with its exit; a session not `arrived` has supply 0, and each arc
    starts with its flow in `flows`, one per arc in order.  Returns (graph,
    exits, the arcs from sessions to slots)."""
    sessions, powers = shape
    n = len(sessions)
    arcs = []
    for k, (first, stop, rate, supplies) in enumerate(sessions):
        arcs += [(0, 2 + k, c if arrived[k] else 0.0) for c in supplies]
        arcs += [(2 + k, 2 + n + i, rate) for i in range(first, stop)]
    arcs += [(2 + n + i, 1, p) for i, p in enumerate(powers)]
    g = FlowGraph(2 + n + len(powers))
    ids = [add_flowing_edge(g, u, v, c, flows[j] if flows else 0.0)
           for j, (u, v, c) in enumerate(arcs)]
    exits = ids[len(ids) - len(powers):]
    return g, exits, [a for a, (u, _, _) in zip(ids, arcs) if u >= 2]


class TestOlpShapedAgainstTheSearchingSolver:
    def test_same_residuals_flow_and_count_bit_for_bit(self):
        # a cold solve with some sessions not arrived, then a warm start from
        # its flow with every session arrived, solved three times with
        # capacities raised between, as OLP's next solve starts from its plan
        rerouted = direct_only = 0
        for seed in range(300):
            rng = random.Random(seed)
            shape = _olp_shape(rng)
            arrived = [rng.random() < 0.6 for _ in shape[0]]
            g, exits, _ = _olp_network(shape, arrived)
            ref, _, _ = _olp_network(shape, arrived)
            want = searching_earliest_exit_flow(ref, 0, exits)
            assert two_arc_earliest_exit_flow(g, 0, exits) == want
            assert list(map(float.hex, g.cap)) == list(map(float.hex, ref.cap)), seed
            flows = [g.flow_on(a) for a in range(0, len(g.to), 2)]
            g, exits, slot_arcs = _olp_network(shape, [True] * len(arrived), flows)
            ref, _, _ = _olp_network(shape, [True] * len(arrived), flows)
            for _ in range(3):
                before = [g.flow_on(a) for a in slot_arcs]
                got = two_arc_earliest_exit_flow(g, 0, exits)
                want = searching_earliest_exit_flow(ref, 0, exits)
                assert got[0].hex() == want[0].hex() and got[1] == want[1], (seed, got, want)
                assert list(map(float.hex, g.cap)) == list(map(float.hex, ref.cap)), seed
                if any(g.flow_on(a) < f for a, f in zip(slot_arcs, before)):
                    rerouted += 1  # some path ran back along a slot arc: a search
                elif got[0] > 0.0:
                    direct_only += 1  # every path was one of two free arcs
                for idx in rng.sample(range(0, len(g.to), 2), rng.randint(0, len(g.to) // 8)):
                    cap = g._initial[idx] * rng.choice([1.0, 1.5]) + rng.uniform(0.0, 1.0)
                    g.raise_capacity(idx, cap)
                    ref.raise_capacity(idx, cap)
        assert rerouted > 200 and direct_only > 200, (rerouted, direct_only)


def _rows_state(rng):
    """Supplies, rate caps, stops and slot powers of an OLP-shaped solve: 1-40
    sessions whose windows start at slot 0 and end at their stops, some caps
    and supplies 0 or NaN, and powers up to the last stop, some 0 or NaN."""
    stops = [rng.randint(1, rng.randint(1, 24)) for _ in range(rng.randint(1, 40))]
    caps = [_odd(rng, rng.uniform(0.1, 3.0)) for _ in stops]
    supplies = [_odd(rng, rng.uniform(0.1, 3.0) * stop * rng.uniform(0.1, 1.2)) for stop in stops]
    load = sum(rng.uniform(0.1, 3.0) for _ in stops) / 2
    powers = [0.0 if u < 0.15 else math.nan if u < 0.17 else rng.uniform(0.0, 1.2) * load
              for u in (rng.random() for _ in range(max(stops)))]
    return supplies, caps, stops, powers


def _odd(rng, x):
    """x, or now and then 0.0 or NaN."""
    u = rng.random()
    return 0.0 if u < 0.05 else math.nan if u < 0.08 else x


def _next_solve(rng, state, flows):
    """The state of a solve d slots after the one of `state` that left
    `flows`, as OLP's next solve starts: the sessions whose stop is past d
    hold their rows from d on as flow, with what they did not ship before d
    and sometimes more as supply, and up to five new sessions without flow
    come in between them.  Returns (state, warm rows), or None if no session
    is held."""
    supplies, caps, stops, powers = state
    d = rng.randrange(max(stops))
    held = [k for k, stop in enumerate(stops) if stop > d]
    if not held:
        return None
    sessions = [(supplies[k] - sum(flows[k][:d]) + rng.choice([0.0, 0.0, 1.0]), caps[k],
                 stops[k] - d, flows[k][d:]) for k in held]
    for _ in range(rng.randint(0, 5)):
        stop = rng.randint(1, max(stops) - d)
        sessions.insert(rng.randint(0, len(sessions)), (
            _odd(rng, rng.uniform(0.1, 3.0) * stop), _odd(rng, rng.uniform(0.1, 3.0)), stop, None))
    supplies, caps, stops, warm = map(list, zip(*sessions))
    return (supplies, caps, stops, powers[d:d + max(stops)]), warm


def _graph_of_rows(supplies, caps, stops, powers, warm):
    """The same network as a `FlowGraph`, built as OLP built it, each arc
    with the flow of its session's `warm` row (None: no flow); returns
    (graph, source arcs, each session's slot arcs, exits)."""
    first_slot = 2 + len(supplies)
    g = FlowGraph(first_slot + len(powers))
    loads, sources, arcs = [0.0] * len(powers), [], []
    for k, (supply, cap, stop, row) in enumerate(zip(supplies, caps, stops, warm)):
        row = [0.0] * stop if row is None else row
        sources.append(add_flowing_edge(g, 0, 2 + k, supply, sum(row)))
        arcs.append([add_flowing_edge(g, 2 + k, first_slot + i, cap, f)
                     for i, f in enumerate(row)])
        for i, f in enumerate(row):
            loads[i] += f
    exits = [add_flowing_edge(g, first_slot + i, 1, p, load)
             for i, (p, load) in enumerate(zip(powers, loads))]
    return g, sources, arcs, exits


def _hex_rows(rows):
    return [list(map(float.hex, row)) for row in rows]


class TestRowSolve:
    def solve_both(self, supplies, caps, stops, powers, warm):
        """Solve the rows and the graph; assert the same floats and count, bit for bit."""
        # the rows augment their warm rows in place; the graph takes them as they were
        net = SlotRows(supplies, caps, stops, powers,
                       [None if row is None else row[:] for row in warm])
        g, sources, arcs, exits = _graph_of_rows(supplies, caps, stops, powers, warm)
        steps = net.solve()
        assert steps == two_arc_earliest_exit_flow(g, 0, exits)[1]
        assert _hex_rows(net.flows) == _hex_rows([[g.flow_on(a) for a in r] for r in arcs])
        assert _hex_rows(net.residuals) == _hex_rows([[g.cap[a] for a in r] for r in arcs])
        assert _hex_rows([net.supply_left, net.power_left]) == _hex_rows(
            [[g.cap[a] for a in sources], [g.cap[a] for a in exits]])
        return net, steps

    def test_same_floats_and_count_as_the_graph_solver(self, monkeypatch):
        # 300 cold solves, each followed by up to two warm starts
        searches, search = [], SlotRows._search

        def recorded(net, x, sourced):
            searches.append(search(net, x, sourced))
            return searches[-1]
        monkeypatch.setattr(SlotRows, "_search", recorded)
        states = pushes = 0
        for seed in range(300):
            rng = random.Random(seed)
            state, warm = _rows_state(rng), None
            for _ in range(3):
                net, steps = self.solve_both(*state, warm or [None] * len(state[0]))
                states += 1
                pushes += steps
                following = _next_solve(rng, state, net.flows)
                if following is None:
                    break
                state, warm = following
        searched = sum(path is not None for _, path, _ in searches)
        pushes -= len(searches) - searched  # a last search that finds no path pushes nothing
        assert states > 600 and searched > 500 and pushes - searched > 500, (
            states, searched, pushes)

    def test_an_exit_s_epsilon_ignores_the_exits_after_it(self):
        # as the graph test of that name: one session of 5e-12 over two slots
        net, steps = self.solve_both([5e-12], [1.0], [2], [1.0, 10.0], [None])
        assert steps == 2 and net.flows == [[5e-12, 0.0]]

    def test_a_sliver_left_on_an_exit_is_still_used(self):
        # as the graph test of that name: "a" (slot 0 only) leaves 2**-22 of
        # slot 0, which "b" fills before using slot 1
        net, _ = self.solve_both([1.0 - 2.0 ** -22, 1.0], [1.0, 1.0], [1, 2], [1.0, 1.0],
                                 [None, None])
        assert [1.0 - x for x in net.power_left] == [1.0, 1.0 - 2.0 ** -22]

    def test_no_slots(self):
        assert SlotRows([1.0], [1.0], [0], [], [None]).solve() == 0


class TestDirectPushes:
    """A slot's direct pushes, source -> session -> slot by the first
    session with supply left and a free arc, are made in one scan of the
    slot's sessions; the floats and the count stay those of the graph
    solver, whose search labels that path first."""

    def test_several_sessions_push_into_one_slot(self):
        # power 10 at each slot, ten sessions of cap 1: slot 0 takes a push from
        # each and slot 1 from the seven whose windows reach it and that have
        # supply left; at slot 2 the three left there are spent, so a last
        # search finds no path
        supplies, caps = [1.0, 2.0, 1.0, 3.0] + [1.5] * 6, [1.0] * 10
        stops = [1, 2, 1, 2, 3, 3, 2, 1, 3, 2]
        net, steps = TestRowSolve().solve_both(supplies, caps, stops, [10.0] * 3, [None] * 10)
        assert [row[0] for row in net.flows] == [1.0] * 10
        assert steps == 10 + 7 + 1

    def test_a_push_that_spends_a_supply_leaves_a_free_arc_to_the_search(self):
        # "a" holds 0.5 in slot 1 and spends the 0.5 it has left in slot 0 with
        # its arc there still free; "b" fills its own arc into slot 0, and the
        # search then moves a's 0.5 out of slot 1 into slot 0 and b's into slot 1
        net, _ = TestRowSolve().solve_both([1.0, 2.0], [1.0, 1.0], [2, 2], [2.0, 0.5],
                                           [[0.0, 0.5], None])
        assert net.flows == [[1.0, 0.0], [1.0, 0.5]] and net.power_left == [0.0, 0.0]

    def test_random_solves_with_several_direct_pushes_per_slot(self, monkeypatch):
        searches, search = [], SlotRows._search
        monkeypatch.setattr(SlotRows, "_search",
                            lambda net, x, sourced: searches.append(x) or search(net, x, sourced))
        crowded = 0
        for seed in range(200):
            rng = random.Random(1000 + seed)
            stops = [rng.randint(1, 12) for _ in range(rng.randint(2, 30))]
            caps = [_odd(rng, rng.uniform(0.1, 1.0)) for _ in stops]
            supplies = [_odd(rng, rng.uniform(0.5, 1.5) * stop * (c if c == c else 1.0))
                        for stop, c in zip(stops, caps)]
            # most slots can take several sessions' caps at once
            powers = [_odd(rng, rng.uniform(0.5, 1.5) * sum(c for c in caps if c == c) / 3)
                      for _ in range(max(stops))]
            del searches[:]
            net, _ = TestRowSolve().solve_both(supplies, caps, stops, powers, [None] * len(stops))
            shipped = [sum(i < len(row) and row[i] > 0.0 for row in net.flows)
                       for i in range(len(powers))]
            if not searches:  # every push was direct
                crowded += sum(count >= 2 for count in shipped)
        assert crowded > 200, crowded


class TestUniformWindows:
    """A window of one power fills its exit residuals and tolerances without
    a per-slot walk, as the graph does them slot by slot."""

    @pytest.mark.parametrize("p", [2.5, 0.0, -0.0, math.nan, 1e-300])
    def test_one_power_cold_and_warm(self, p):
        rng = random.Random(7)
        for _ in range(30):
            supplies, caps, stops, _ = _rows_state(rng)
            state = supplies, caps, stops, [p] * max(stops)
            net, _ = TestRowSolve().solve_both(*state, [None] * len(stops))
            following = _next_solve(rng, state, net.flows)
            if following is not None:
                (supplies, caps, stops, powers), warm = following
                TestRowSolve().solve_both(supplies, caps, stops, [p] * len(powers), warm)

    def test_zeros_of_both_signs_share_a_tolerance(self):
        net = SlotRows([1.0], [1.0], [3], (0.0, -0.0, 0.0), [None])
        assert list(map(float.hex, net.power_tols)) == [float.hex(0.0)] * 3
        assert list(map(float.hex, net.power_left)) == list(map(float.hex, (0.0, -0.0, 0.0)))
