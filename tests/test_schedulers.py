import math
import random

import pytest

from evcs.dynamics import SimState, initial_state, laxity, step
from evcs.feasibility import is_offline_feasible
from evcs.model import (ChargingSession, ConstantPower, ContractError, Instance,
                        StepwisePower)
from evcs.schedulers import (POLICIES, _chargeable, edf_rates, es_rates, get_policy,
                             llf_rates, olp_rates, rep_rates, sllf_rates)
from evcs.netflow import FlowGraph
from evcs.simulator import simulate

from conftest import random_feasible_rates, random_slot_state
from flow_oracle import full_horizon_olp_rates, plan_following_full_horizon_olp_rates


def next_laxities(decision, state, instance):
    """Per-session laxity at t+1 induced by a decision's rates."""
    t = state.t
    out = {}
    for sid, r in decision.rates.items():
        s = instance.session(sid)
        out[sid] = laxity(s, t + 1, max(state.remaining[sid] - r, 0.0))
    return out


def saturation_target(state, instance, t):
    caps = sum(min(s.max_rate, state.remaining[s.id]) for s in instance.sessions
               if s.arrival <= t < s.departure and state.remaining[s.id] > 1e-12)
    return min(instance.power.at(t), caps)


class TestSllf:
    def test_canonical_slot_zero(self, instance_ia):
        state = initial_state(instance_ia)
        decision = sllf_rates(state, instance_ia, 0)
        assert decision.rates["EV1"] == pytest.approx(0.25, abs=1e-8)
        assert decision.rates["EV2"] == pytest.approx(0.75, abs=1e-8)
        assert decision.threshold == pytest.approx(0.5, abs=1e-8)
        # both next-slot laxities are equalized at the threshold
        nxt = next_laxities(decision, state, instance_ia)
        assert nxt["EV1"] == pytest.approx(0.5, abs=1e-8)
        assert nxt["EV2"] == pytest.approx(0.5, abs=1e-8)

    def test_canonical_slot_one(self, instance_ia):
        state = step(initial_state(instance_ia), {"EV1": 0.25, "EV2": 0.75}, instance_ia)
        decision = sllf_rates(state, instance_ia, 1)
        assert decision.rates["EV1"] == pytest.approx(0.5, abs=1e-8)
        assert decision.rates["EV2"] == pytest.approx(0.5, abs=1e-8)

    def test_underloaded_branch(self):
        inst = Instance((ChargingSession("a", 0, 2, 0.3, 1.0),), ConstantPower(5.0))
        decision = sllf_rates(initial_state(inst), inst, 0)
        assert decision.rates == {"a": 0.3}
        assert decision.threshold == math.inf
        assert decision.diagnostics["solver_steps"] == 0

    def test_no_chargeable_sessions(self):
        inst = Instance((ChargingSession("a", 3, 5, 1.0, 1.0),), ConstantPower(1.0))
        assert sllf_rates(initial_state(inst), inst, 0).rates == {}

    def test_state_slot_mismatch_rejected(self, instance_ia):
        with pytest.raises(ContractError):
            sllf_rates(initial_state(instance_ia), instance_ia, 1)

    def test_saturation_property(self):
        """sLLF and the two sharing policies use min(P, sum of caps) exactly."""
        for policy in (sllf_rates, es_rates, rep_rates):
            rng = random.Random(101)
            for _ in range(400):
                state, inst = random_slot_state(rng)
                total = sum(policy(state, inst, 0).rates.values())
                tol = 1e-12 * max(1.0, inst.power.at(0))
                assert abs(total - saturation_target(state, inst, 0)) <= tol, policy

    def test_power_just_under_summed_caps(self):
        """Rounding can leave the sweep short of P at its last breakpoint."""
        rng = random.Random(105)
        for _ in range(200):
            state, inst = random_slot_state(rng)
            caps = {s.id: min(s.max_rate, state.remaining[s.id]) for s in inst.sessions}
            p = math.nextafter(sum(caps.values()), 0.0)
            inst = Instance(inst.sessions, ConstantPower(p))
            for policy in (sllf_rates, es_rates, rep_rates):
                rates = policy(state, inst, 0).rates
                assert abs(sum(rates.values()) - p) <= 1e-12 * max(1.0, p), policy
                assert all(r <= caps[sid] for sid, r in rates.items()), policy

    def test_rates_match_clamp_formula_at_threshold(self):
        rng = random.Random(102)
        for _ in range(400):
            state, inst = random_slot_state(rng)
            decision = sllf_rates(state, inst, 0)
            level = decision.threshold
            for sid, r in decision.rates.items():
                s = inst.session(sid)
                cap = min(s.max_rate, state.remaining[sid])
                raw = s.max_rate * (level - laxity(s, 0, state.remaining[sid]) + 1.0)
                assert r == min(max(raw, 0.0), cap)

    def test_maxmin_optimality_spot_check(self):
        rng = random.Random(103)
        for _ in range(100):
            state, inst = random_slot_state(rng, max_evs=5)
            decision = sllf_rates(state, inst, 0)
            if not decision.rates:
                continue
            best = min(next_laxities(decision, state, inst).values())
            for _ in range(20):
                alt = random_feasible_rates(rng, state, inst)
                alt_min = min(laxity(inst.session(sid), 1,
                                     max(state.remaining[sid] - r, 0.0))
                              for sid, r in alt.items())
                assert alt_min <= best + 1e-6


class TestLlf:
    def test_priority_contrast_slot_zero(self, instance_ia):
        decision = llf_rates(initial_state(instance_ia), instance_ia, 0)
        assert decision.rates == {"EV1": 0.0, "EV2": 1.0}

    def test_slot_one_reversal(self, instance_ia):
        state = step(initial_state(instance_ia), {"EV1": 0.0, "EV2": 1.0}, instance_ia)
        decision = llf_rates(state, instance_ia, 1)
        assert decision.rates["EV1"] == pytest.approx(0.75)
        assert decision.rates["EV2"] == pytest.approx(0.25)


class TestEdf:
    def test_earlier_deadline_first(self):
        inst = Instance((ChargingSession("a", 0, 1, 1.0, 1.0),
                         ChargingSession("b", 0, 2, 1.0, 1.0)), ConstantPower(1.0))
        assert edf_rates(initial_state(inst), inst, 0).rates == {"a": 1.0, "b": 0.0}

    def test_deadline_tie_broken_by_id(self, instance_ia):
        decision = edf_rates(initial_state(instance_ia), instance_ia, 0)
        assert decision.rates == {"EV1": 0.75, "EV2": 0.25}

    def test_no_active_evs(self):
        inst = Instance((ChargingSession("a", 2, 4, 1.0, 1.0),), ConstantPower(1.0))
        assert edf_rates(initial_state(inst), inst, 0).rates == {}


class TestEsRep:
    def test_es_waterfill_with_saturating_caps(self):
        inst = Instance((ChargingSession("a", 0, 10, 5.0, 0.5),
                         ChargingSession("b", 0, 10, 5.0, 1.0),
                         ChargingSession("c", 0, 10, 5.0, 2.0)), ConstantPower(3.0))
        rates = es_rates(initial_state(inst), inst, 0).rates
        assert rates["a"] == pytest.approx(0.5)
        assert rates["b"] == pytest.approx(1.0)
        assert rates["c"] == pytest.approx(1.5)

    def test_es_symmetry(self):
        inst = Instance(tuple(ChargingSession(f"s{k}", 0, 4, 2.0, 1.0) for k in range(4)),
                        ConstantPower(2.0))
        rates = es_rates(initial_state(inst), inst, 0).rates
        assert all(r == pytest.approx(0.5) for r in rates.values())

    def test_es_underloaded(self):
        inst = Instance((ChargingSession("a", 0, 4, 0.4, 1.0),
                         ChargingSession("b", 0, 4, 3.0, 1.0)), ConstantPower(5.0))
        rates = es_rates(initial_state(inst), inst, 0).rates
        assert rates == pytest.approx({"a": 0.4, "b": 1.0})

    def test_rep_proportional_split(self):
        inst = Instance((ChargingSession("a", 0, 10, 1.0, 10.0),
                         ChargingSession("b", 0, 10, 2.0, 10.0),
                         ChargingSession("c", 0, 10, 3.0, 10.0)), ConstantPower(3.0))
        rates = rep_rates(initial_state(inst), inst, 0).rates
        assert rates["a"] == pytest.approx(0.5)
        assert rates["b"] == pytest.approx(1.0)
        assert rates["c"] == pytest.approx(1.5)

    def test_rep_single_ev(self):
        inst = Instance((ChargingSession("a", 0, 4, 2.0, 0.7),), ConstantPower(5.0))
        assert rep_rates(initial_state(inst), inst, 0).rates == {"a": pytest.approx(0.7)}

    def test_rep_equal_remaining_is_equal(self):
        inst = Instance(tuple(ChargingSession(f"s{k}", 0, 4, 2.0, 1.0) for k in range(3)),
                        ConstantPower(1.5))
        rates = rep_rates(initial_state(inst), inst, 0).rates
        assert all(r == pytest.approx(0.5) for r in rates.values())


class TestOlp:
    def test_front_loads_single_ev(self):
        inst = Instance((ChargingSession("a", 0, 3, 1.5, 1.0),), ConstantPower(1.0))
        assert olp_rates(initial_state(inst), inst, 0).rates == {"a": pytest.approx(1.0)}

    def test_front_loads_under_loose_power(self):
        inst = Instance((ChargingSession("a", 0, 3, 1.2, 1.0),), ConstantPower(2.0))
        # evenly spreading 0.4/slot would also finish; front-loading must not
        assert olp_rates(initial_state(inst), inst, 0).rates["a"] == pytest.approx(1.0)

    def test_canonical_instance_saturates_power(self, instance_ia):
        decision = olp_rates(initial_state(instance_ia), instance_ia, 0)
        assert sum(decision.rates.values()) == pytest.approx(1.0)
        # whatever the split, the residual slot must still finish both EVs
        for sid, r in decision.rates.items():
            rem = instance_ia.session(sid).energy - r
            assert rem <= 1.0 + 1e-9

    def test_infeasible_residual_falls_back(self):
        inst = Instance((ChargingSession("a", 0, 2, 2.0, 1.0),), ConstantPower(0.5))
        decision = olp_rates(initial_state(inst), inst, 0)
        assert decision.diagnostics.get("olp_fallback") is True
        assert decision.rates == {"a": pytest.approx(0.5)}

    def test_no_active_evs(self):
        inst = Instance((ChargingSession("a", 2, 4, 1.0, 1.0),), ConstantPower(1.0))
        assert olp_rates(initial_state(inst), inst, 0).rates == {}


class TestOlpNetwork:
    def test_arcs_follow_the_opened_slots(self, monkeypatch):
        sessions = (ChargingSession("a", 0, 2, 1.5, 1.0), ChargingSession("b", 1, 4, 2.0, 1.0),
                    ChargingSession("c", 0, 4, 3.0, 1.0), ChargingSession("d", 1, 6, 1.0, 0.5))
        inst = Instance(sessions, ConstantPower(1.5), 9)
        state = SimState(1, {"a": 0.5, "b": 2.0, "c": 2.0, "d": 1.0})
        arcs_at_call = []
        max_flow = FlowGraph.max_flow

        def counting_max_flow(g, s, t):
            arcs_at_call.append(len(g.to) // 2)
            return max_flow(g, s, t)

        monkeypatch.setattr(FlowGraph, "max_flow", counting_max_flow)
        decision = olp_rates(state, inst, 1)
        assert not decision.diagnostics.get("olp_fallback")
        # 4 source arcs; slot tau opens the columns of the sessions still
        # present at tau, then its own sink arc: slots 1..5, none past slot 5
        open_columns = [4, 3, 3, 1, 1]
        expected, arcs = [], 4
        for columns in open_columns:
            arcs += columns + 1
            expected.append(arcs)
        assert arcs_at_call == expected == [9, 13, 17, 19, 21]


def random_mid_run_state(rng: random.Random):
    """A random OLP decision at slot t > 0 with slots left after the last departure.

    Remaining demands may exceed what the residual window can ship, so some
    states take the sLLF fallback; half the instances have stepwise power.
    """
    t = rng.randint(0, 6)
    sessions = []
    for k in range(rng.randint(1, 7)):
        a = rng.randint(0, t + 3)
        d = rng.randint(max(a, t) + 1, t + 10)
        r_bar = rng.uniform(0.1, 3.0)
        sessions.append(ChargingSession(f"s{k}", a, d, r_bar * (d - a), r_bar))
    horizon = max(s.departure for s in sessions) + rng.randint(0, 8)
    if rng.random() < 0.5:
        power = StepwisePower([rng.uniform(0.0, 6.0) * rng.choice([0.1, 1.0, 10.0])
                               for _ in range(horizon)])
    else:
        power = ConstantPower(rng.uniform(0.1, 8.0))
    remaining = {s.id: rng.uniform(1e-3, 1.1 * s.max_rate * (s.departure - t))
                 for s in sessions}
    return SimState(t, remaining), Instance(tuple(sessions), power, horizon)


def random_wide_state(rng: random.Random):
    """An OLP decision over a window of up to 60 slots.

    Several sessions share a departure, stepwise power has zero slots, and
    some remaining demands sit near the flow epsilon, 1e-12 times the
    largest capacity, on either side of it.
    """
    t = rng.randint(0, 5)
    shared = [rng.randint(t + 1, t + 60) for _ in range(2)]
    sessions, remaining = [], {}
    for k in range(rng.randint(1, 8)):
        a = rng.randint(0, t)
        d = rng.choice(shared) if rng.random() < 0.6 else rng.randint(t + 1, t + 60)
        r_bar = rng.uniform(0.1, 3.0)
        if rng.random() < 0.2:
            energy, rem = 1.0, rng.choice([2e-12, 5e-12, 1e-11, 4e-11, 1e-9])
        else:
            energy = r_bar * (d - a)
            rem = rng.uniform(1e-3, 1.05 * r_bar * (d - t))
        sessions.append(ChargingSession(f"s{k}", a, d, energy, r_bar))
        remaining[f"s{k}"] = rem
    horizon = max(s.departure for s in sessions) + rng.randint(0, 4)
    if rng.random() < 0.7:
        power = StepwisePower([0.0 if rng.random() < 0.3 else rng.uniform(0.0, 6.0)
                               for _ in range(horizon)])
    else:
        power = ConstantPower(rng.uniform(0.1, 8.0))
    return SimState(t, remaining), Instance(tuple(sessions), power, horizon)


class TestOlpAgainstFullHorizon:
    def test_same_decisions_on_wide_windows(self):
        rng = random.Random(106)
        fallbacks = 0
        for _ in range(300):
            state, inst = random_wide_state(rng)
            decision = olp_rates(state, inst, state.t)
            assert decision == full_horizon_olp_rates(state, inst, state.t)
            fallbacks += bool(decision.diagnostics.get("olp_fallback"))
        assert 30 <= fallbacks <= 270

    def test_negative_power_raises_as_the_reference_does(self):
        inst = Instance((ChargingSession("a", 0, 3, 2.0, 1.0),
                         ChargingSession("b", 0, 5, 2.0, 1.0)),
                        StepwisePower([1.0, 1.0, 0.5, -1.0, 1.0]))
        state = initial_state(inst)
        with pytest.raises(ValueError) as expected:
            full_horizon_olp_rates(state, inst, 0)
        assert str(expected.value) == "capacities may only be raised"
        # the reference fails inside the flow graph; olp_rates names slot and power
        with pytest.raises(ContractError) as raised:
            olp_rates(state, inst, 0)
        assert str(raised.value) == "OLP: negative station power P(3) = -1.0 at slot 3"

    def test_same_decisions_on_random_states(self):
        rng = random.Random(105)
        fallbacks = 0
        for _ in range(400):
            state, inst = random_mid_run_state(rng)
            decision = olp_rates(state, inst, state.t)
            assert decision == full_horizon_olp_rates(state, inst, state.t)
            fallbacks += bool(decision.diagnostics.get("olp_fallback"))
        assert 40 <= fallbacks <= 360

    def test_same_runs_on_corpus_samples(self, monkeypatch, reference_corpus, spaced_corpus):
        # a run solves at a slot and follows that plan until a session arrives
        sample = reference_corpus[::20] + spaced_corpus[::20]
        runs = [simulate(inst, "olp") for inst in sample]
        monkeypatch.setitem(POLICIES, "olp", plan_following_full_horizon_olp_rates)
        assert runs == [simulate(inst, "olp") for inst in sample]


def random_run_instance(rng: random.Random):
    """A random instance from slot 0: overlapping sojourns, later arrivals that
    force a new solve, and constant or stepwise power, sometimes too little."""
    sessions = []
    for k in range(rng.randint(1, 8)):
        a = rng.randint(0, 12)
        d = a + rng.randint(1, 10)
        r_bar = rng.uniform(0.2, 3.0)
        sessions.append(ChargingSession(f"s{k}", a, d, r_bar * (d - a) * rng.uniform(0.05, 1.0),
                                        r_bar))
    horizon = max(s.departure for s in sessions) + rng.randint(0, 3)
    if rng.random() < 0.5:
        power = StepwisePower([0.0 if rng.random() < 0.2 else rng.uniform(0.5, 6.0)
                               for _ in range(horizon)])
    else:
        power = ConstantPower(rng.uniform(0.5, 6.0))
    return Instance(tuple(sessions), power, horizon)


def planned_slot_totals(plan, t):
    """Slot totals of an OLP plan from slot t to the end of its window."""
    _, start, end, planned = plan
    totals = {}
    for tau in range(t, end):
        totals[tau] = sum(row[tau - start] for row in planned.values() if tau - start < len(row))
    return totals


def residual_instance(state, instance, t):
    """The chargeable sessions' remaining demands over slots t, t + 1, ..., shifted to 0."""
    sessions = [ChargingSession(s.id, 0, s.departure - t, state.remaining[s.id], s.max_rate)
                for s in _chargeable(state, instance, t)]
    power = StepwisePower([instance.power.at(tau) for tau in range(t, instance.horizon)])
    return Instance(sessions, power, instance.horizon - t)


def run_checking_followed_slots(monkeypatch, instance):
    """Simulate OLP, checking each followed slot against a fresh solve;
    returns (solves, follows)."""
    counts = {"olp_shipped": 0, "olp_plan_slot": 0}

    def checking_olp(state, inst, t):
        plan = state.memory.get("olp")
        decision = olp_rates(state, inst, t)
        for key in counts:
            counts[key] += key in decision.diagnostics
        if "olp_plan_slot" in decision.diagnostics:
            fresh = SimState(t, state.remaining, {})
            assert olp_rates(fresh, inst, t).diagnostics["olp_shipped"] > 0.0
            followed = planned_slot_totals(plan, t)
            solved = planned_slot_totals(fresh.memory["olp"], t)
            for tau in sorted(set(followed) | set(solved)):
                a, b = followed.get(tau, 0.0), solved.get(tau, 0.0)
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), (t, tau, a, b)
            assert is_offline_feasible(residual_instance(state, inst, t))
        return decision

    monkeypatch.setitem(POLICIES, "olp", checking_olp)
    simulate(instance, "olp")
    return counts["olp_shipped"], counts["olp_plan_slot"]


class TestOlpPlan:
    def test_followed_slots_ship_what_a_fresh_solve_ships_on_random_instances(
            self, monkeypatch):
        rng = random.Random(107)
        solves = follows = 0
        for _ in range(300):
            s, f = run_checking_followed_slots(monkeypatch, random_run_instance(rng))
            solves, follows = solves + s, follows + f
        assert solves > 300 and follows > 300

    def test_followed_slots_ship_what_a_fresh_solve_ships_on_corpus_samples(
            self, monkeypatch, reference_corpus, spaced_corpus):
        solves = follows = 0
        for inst in reference_corpus[::10] + spaced_corpus[::10]:
            s, f = run_checking_followed_slots(monkeypatch, inst)
            solves, follows = solves + s, follows + f
        assert follows > 2 * solves > 0

    def test_repeated_id_solves_at_its_second_arrival(self, monkeypatch):
        # the two sojourns of "a" share one remaining energy, 4.0; the plan made
        # at slot 0 holds only the first, so slot 3 must solve again
        inst = Instance((ChargingSession("a", 0, 5, 2.0, 1.0),
                         ChargingSession("a", 3, 8, 4.0, 1.0)), ConstantPower(1.0), 8)
        diagnostics = {}

        def recording_olp(state, instance, t):
            decision = olp_rates(state, instance, t)
            diagnostics[t] = decision.diagnostics
            return decision

        monkeypatch.setitem(POLICIES, "olp", recording_olp)
        simulate(inst, "olp")
        assert diagnostics[1] == diagnostics[2] == {"olp_plan_slot": 0}
        assert set(diagnostics[0]) == set(diagnostics[3]) == {"olp_shipped"}

    def test_fallback_leaves_no_plan(self):
        inst = Instance((ChargingSession("a", 0, 2, 2.0, 1.0),), ConstantPower(0.5))
        state = SimState(0, {"a": 2.0}, {})
        assert olp_rates(state, inst, 0).diagnostics["olp_fallback"] is True
        assert state.memory == {"olp": None}
        assert olp_rates(step(state, {"a": 0.5}, inst), inst, 1).diagnostics["olp_fallback"]

    def test_run_memory_takes_no_part_in_equality(self):
        assert SimState(0, {"a": 1.0}, {"olp": None}) == SimState(0, {"a": 1.0})


class TestAllPolicies:
    def test_registry(self):
        assert set(POLICIES) == {"sllf", "llf", "edf", "es", "rep", "olp"}
        assert get_policy("sllf") is sllf_rates
        with pytest.raises(KeyError):
            get_policy("nope")

    def test_decision_invariants_on_random_states(self):
        rng = random.Random(104)
        for _ in range(60):
            state, inst = random_slot_state(rng, max_evs=6)
            for name, policy in POLICIES.items():
                decision = policy(state, inst, 0)
                total = 0.0
                for sid, r in decision.rates.items():
                    s = inst.session(sid)
                    cap = min(s.max_rate, state.remaining[sid])
                    assert -1e-9 <= r <= cap + 1e-9 * max(1.0, s.max_rate), name
                    total += r
                p = inst.power.at(0)
                assert total <= p + 1e-9 * max(1.0, p), name

    def test_zero_power(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),
                         ChargingSession("b", 0, 3, 1.0, 1.0)), ConstantPower(0.0))
        for name, policy in POLICIES.items():
            rates = policy(initial_state(inst), inst, 0).rates
            assert set(rates) == {"a", "b"}, name
            assert all(r == 0.0 for r in rates.values()), (name, rates)

    def test_finished_sessions_get_no_rate(self):
        inst = Instance((ChargingSession("a", 0, 4, 1.0, 1.0),
                         ChargingSession("b", 0, 4, 1.0, 1.0)), ConstantPower(1.0))
        state = SimState(1, {"a": 0.0, "b": 0.5})
        for name, policy in POLICIES.items():
            assert "a" not in policy(state, inst, 1).rates, name
