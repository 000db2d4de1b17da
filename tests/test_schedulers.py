import importlib.util
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from evcs.dynamics import (RATE_TOL, SimState, _cells, _charge, _charge_ids, initial_state, laxity,
                           step)
from evcs.feasibility import failed_cut, min_power_capacity
from evcs.model import (ChargingSession, ConstantPower, ContractError, Instance,
                        StepwisePower)
from evcs import cli, schedulers, simulator
from evcs.schedulers import KERNELS, POLICIES, _kernel_rates, _live, _olp, _sllf, decide
from evcs.netflow import FlowGraph
from evcs.simulator import simulate

from conftest import random_feasible_rates, random_slot_state
from flow_oracle import chargeable as _chargeable, full_horizon_olp_rates
from policy_oracle import residual_instance
from sim_oracle import CAPS_FIRST, dense, full_scan_chargeable, full_scan_simulate

# each policy's decision for a direct caller, bound before any test replaces a `POLICIES` entry
sllf_rates, llf_rates, edf_rates, es_rates, rep_rates, olp_rates = (
    POLICIES[name] for name in ("sllf", "llf", "edf", "es", "rep", "olp"))


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


@st.composite
def far_apart_slots(draw):
    """(state, instance): slot 0 with peak rates from 1e-3 to 1e13, energies
    left from a hundredth of a slot at the peak rate to the whole sojourn at
    it, or from 1e-3 to 1e6 whatever the peak rate, under a constant power
    from 1e-3 to 1e6.  A session's energy in the instance is at most what
    its peak rate delivers over its sojourn."""
    sessions, remaining = [], {}
    for k in range(draw(st.integers(1, 6))):
        max_rate = 10.0 ** draw(st.floats(-3.0, 13.0))
        departure = draw(st.integers(1, 30))
        if draw(st.booleans()):
            energy = max_rate * draw(st.floats(0.01, float(departure)))
        else:
            energy = 10.0 ** draw(st.floats(-3.0, 6.0))
        sessions.append(ChargingSession(f"s{k}", 0, departure,
                                        min(energy, max_rate * departure), max_rate))
        remaining[f"s{k}"] = energy
    power = 10.0 ** draw(st.floats(-3.0, 6.0))
    return SimState(0, remaining), Instance(sessions, ConstantPower(power), 30)


class TestFarApartNumbers:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(far_apart_slots())
    def test_rates_stay_within_the_caps_and_the_power(self, case):
        state, inst = case
        ids = [s.id for s in inst.sessions]
        limits = dict(zip(ids, _cells(inst.sessions, ids)))
        p = inst.power.at(0)
        caps = [min(s.max_rate, state.remaining[s.id]) for s in inst.sessions]
        for policy in (sllf_rates, es_rates, rep_rates):
            rates = policy(state, inst, 0).rates
            for s, cap in zip(inst.sessions, caps):
                assert 0.0 <= rates[s.id] <= cap, policy
            # `_charge` raises on a total over p_limit + RATE_TOL * max(1.0, p_limit)
            _charge_ids(dict(state.remaining), rates, limits, 0, p)
            total = 0.0
            for r in rates.values():
                total += r
            assert total >= min(p, sum(caps)) - RATE_TOL * max(1.0, p), policy

    def test_a_huge_peak_rate_leaves_no_power_unused(self):
        # sLLF's level L = c + 4.6e-16 rounded to c here, and its rate to 0.0
        inst = Instance((ChargingSession("a", 0, 27, 5.1e13, 3.2e12),), ConstantPower(0.0015))
        state = SimState(0, {"a": 5.1e13})
        for policy in (sllf_rates, es_rates, rep_rates):
            rate = policy(state, inst, 0).rates["a"]
            assert abs(rate - 0.0015) <= math.ulp(0.0015), (policy, rate)

    def test_a_huge_slope_past_its_segment_takes_no_share(self):
        # b's segment ends at the breakpoint 4.0, where 2.9e11 * (4.0 - c) rounds
        # under its cap: taken as free there, b took up what a should get
        inst = Instance((ChargingSession("a", 0, 19, 138394.01548547982, 9725.873887230646),
                         ChargingSession("b", 0, 5, 49.75309804282538, 289713079182.51794)),
                        ConstantPower(2500.0))
        rates = sllf_rates(initial_state(inst), inst, 0).rates
        assert rates["b"] == 49.75309804282538
        assert abs(rates["a"] + rates["b"] - 2500.0) <= 1e-12 * 2500.0, rates


@st.composite
def uncontended_slots(draw):
    """(state, instance, t): a slot whose chargeable caps, summed in instance
    order, fit under P(t), at it or with room to spare; some sessions are
    finished or not active at t.  A remaining energy may exceed the
    session's energy, which is at most its peak rate over its sojourn."""
    t = draw(st.integers(0, 3))
    sessions, remaining = [], {}
    for k in range(draw(st.integers(0, 7))):
        arrival = draw(st.integers(0, t + 1))
        departure = arrival + draw(st.integers(1, 6))
        max_rate = draw(st.floats(0.01, 5.0))
        energy = draw(st.floats(0.01, 20.0))
        sessions.append(ChargingSession(f"s{k}", arrival, departure,
                                        min(energy, max_rate * (departure - arrival)), max_rate))
        remaining[f"s{k}"] = draw(st.sampled_from([0.0, 1e-13, energy, energy / 3, max_rate,
                                                   max_rate * 0.999]))
    state = SimState(t, remaining)
    probe = Instance(sessions, ConstantPower(0.0), t + 8)
    fitted = sum(min(s.max_rate, remaining[s.id])
                 for s in full_scan_chargeable(state, probe, t)[0])
    power = fitted + draw(st.sampled_from([0.0, 0.0, 1e-9, 1.0, 100.0]))
    if draw(st.booleans()):
        powers = [draw(st.floats(0.0, 10.0)) for _ in range(t + 8)]
        powers[t] = power
        return state, Instance(sessions, StepwisePower(powers), t + 8), t
    return state, Instance(sessions, ConstantPower(power), t + 8), t


class TestUncontendedSlots:
    @settings(max_examples=300, deadline=None)
    @given(uncontended_slots())
    def test_every_caps_first_policy_gives_each_session_its_cap(self, case):
        state, inst, t = case
        caps = {s.id: min(s.max_rate, state.remaining[s.id])
                for s in full_scan_chargeable(state, inst, t)[0]}
        for name in sorted(CAPS_FIRST):
            decision = POLICIES[name](state, inst, t)
            assert repr(decision.rates) == repr(caps), name
            assert decision.threshold == math.inf, name

    def test_greedy_policies_give_the_full_cap_at_an_exact_fit(self):
        # 0.8 + 1.5 == 2.3, but 2.3 - 0.8 == 1.4999999999999998: a fill in
        # deadline or laxity order would leave b that much short of its cap
        inst = Instance((ChargingSession("a", 0, 1, 0.8, 0.8),
                         ChargingSession("b", 0, 2, 2.9, 1.5)), ConstantPower(2.3))
        assert 2.3 - 0.8 < 1.5
        for policy in (llf_rates, edf_rates):
            decision = policy(initial_state(inst), inst, 0)
            assert decision.rates == {"a": 0.8, "b": 1.5}
            assert decision.threshold == math.inf

    def test_contended_slots_keep_a_finite_threshold(self, instance_ia):
        decision = sllf_rates(initial_state(instance_ia), instance_ia, 0)
        assert decision.threshold < math.inf
        for name in ("llf", "edf", "es", "rep"):
            assert POLICIES[name](initial_state(instance_ia), instance_ia, 0).threshold is None


@st.composite
def uncontended_spans(draw):
    """(instance, remaining): the sessions of one busy span, with unique ids
    and peak rates above 0, under a constant power that their chargeable
    caps fit under, at it or with room to spare.  Some are finished, some
    land on a multiple of their peak rate, and some are a hair above or
    below `FINISHED_EPS`."""
    span, remaining = [], {}
    for k in range(draw(st.integers(1, 7))):
        max_rate = draw(st.floats(0.05, 5.0))
        energy = draw(st.floats(1e-3, 20.0))
        span.append(ChargingSession(f"s{k}", 0, 1000, energy, max_rate))
        remaining[f"s{k}"] = draw(st.sampled_from([
            0.0, 1e-13, energy, energy / 3, max_rate * draw(st.integers(1, 5)),
            max_rate * 0.999, max_rate + 3e-12 * max(1.0, energy),
            2 * max_rate + 0.5e-12 * max(1.0, energy)]))
    caps = _live(_cells(span, [s.id for s in span]), remaining)[1]
    power = sum(caps) + draw(st.sampled_from([0.0, 0.0, 1e-9, 1.0, 100.0]))
    return Instance(span, ConstantPower(power), 1000), remaining


class TestUncontendedSpans:
    @settings(max_examples=300, deadline=None)
    @given(uncontended_spans())
    def test_caps_charged_at_one_slot_fit_at_the_next(self, case):
        """The invariant behind the simulator's one pass over the rest of a
        busy span: one power, one set of sessions, caps that only fall."""
        inst, remaining = case
        span, power = inst.sessions, inst.power.at(0)
        cells = _cells(span, [s.id for s in span])
        slots = max(math.ceil(remaining[s.id] / s.max_rate) for s in span) + 1
        for t in range(slots + 1):
            charged, caps, at_caps, _, _ = _kernel_rates(_sllf, cells, remaining, power, t)
            if not charged:
                break
            assert at_caps, t
            _charge(remaining, charged, caps, t, power)
        assert not charged, slots


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

    def test_a_shortfall_within_demand_tol_is_solved(self):
        # b ships 2.0 of its 2.0000015 left: 1.5e-6 is within DEMAND_TOL of
        # b's energy of 2, the rule a run is judged by, though not within 1e-9
        # of the total; the rule does not tighten as the remaining energy
        # shrinks, so the residual at slot 1 ships too
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),
                         ChargingSession("b", 0, 2, 2.0, 1.0)), ConstantPower(10.0))
        state = SimState(0, {"a": 1.0, "b": 2.0 + 1.5e-6})
        decision = olp_rates(state, inst, 0)
        assert "olp_fallback" not in decision.diagnostics
        assert decision.rates == {"a": 1.0, "b": 1.0}
        assert not assert_as_full_horizon(state, inst, decision)
        reference = full_horizon_olp_rates(state, inst, 0)
        assert reference.rates == decision.rates
        after = step(state, decision.rates, inst)
        assert "olp_fallback" not in olp_rates(after, inst, 1).diagnostics

    def test_a_huge_peak_rate_does_not_hide_a_rerouted_flow(self):
        # b can ship only in slot 0, through the reverse of a's arc into it;
        # an arc capped at the peak rate 1e300 would have a tolerance of 1e288
        inst = Instance((ChargingSession("a", 0, 2, 2.0, 1e300),
                         ChargingSession("b", 0, 1, 1.0, 1.0)), ConstantPower(1.5))
        state = initial_state(inst)
        decision = olp_rates(state, inst, 0)
        assert "olp_fallback" not in decision.diagnostics
        assert sum(decision.rates.values()) == 1.5 and decision.rates["b"] == 1.0
        assert not assert_as_full_horizon(state, inst, decision)


class TestOlpNetwork:
    def test_a_warm_solve_keeps_the_planned_rows(self):
        # slot 0 plans "a" and "c" over slots 0-2 at power 1.5; "b" arrives at
        # slot 1, so slot 1 solves again from that plan: "a" and "c" keep
        # their rows and fill slot 1, and "b" ships through slot 2
        b, a, c = (ChargingSession("b", 1, 3, 1.0, 1.0), ChargingSession("a", 0, 3, 2.0, 1.0),
                   ChargingSession("c", 0, 3, 1.0, 1.0))
        inst = Instance((b, a, c), ConstantPower(1.5), 3)
        state = SimState(0, {"b": 1.0, "a": 2.0, "c": 1.0}, {})
        first = olp_rates(state, inst, 0)
        assert first.diagnostics == {"solver_steps": 5}
        assert state.memory["olp"] == (inst, 0, 3, {id(a): [1.0, 1.0, 0.0],
                                                    id(c): [0.5, 0.5, 0.0]})
        state = step(state, first.rates, inst)
        warm = olp_rates(state, inst, 1)
        assert warm.rates == {"b": 0.0, "a": 1.0, "c": 0.5}
        assert warm.diagnostics == {"solver_steps": 2}
        assert state.memory["olp"] == (inst, 1, 3, {id(b): [0.0, 1.0], id(a): [1.0, 0.0],
                                                    id(c): [0.5, 0.0]})
        # a cold solve of the same state ships the same slot totals, split otherwise
        cold = SimState(1, dict(state.remaining), {})
        assert olp_rates(cold, inst, 1).rates == {"b": 1.0, "a": 0.5, "c": 0.0}
        assert cold.memory["olp"] == (inst, 1, 3, {id(b): [1.0, 0.0], id(a): [0.5, 0.5],
                                                   id(c): [0.0, 0.5]})


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
    some remaining demands are tiny, 2e-12 to 1e-9, on either side of 1e-12
    times the other capacities.
    """
    t = rng.randint(0, 5)
    shared = [rng.randint(t + 1, t + 60) for _ in range(2)]
    sessions, remaining = [], {}
    for k in range(rng.randint(1, 8)):
        a = rng.randint(0, t)
        d = rng.choice(shared) if rng.random() < 0.6 else rng.randint(t + 1, t + 60)
        r_bar = rng.uniform(0.1, 3.0)
        if rng.random() < 0.2:
            energy, rem = min(1.0, r_bar * (d - a)), rng.choice([2e-12, 5e-12, 1e-11, 4e-11, 1e-9])
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


def assert_as_full_horizon(state, instance, decision) -> bool:
    """Check an OLP decision made at `state` against `full_horizon_olp_rates`
    on the same remaining energies; returns whether it fell back.

    It falls back where the reference does, and then takes the sLLF rates.
    Otherwise its slot total is the reference's within 1e-12 relative, and
    what it leaves of its sessions' demand at t + 1 is offline feasible,
    judged by their energies as OLP judges it, sessions that depart at t + 1
    having shipped theirs to 1e-9 of the total.
    """
    t = state.t
    fresh = SimState(t, dict(state.remaining))
    reference = full_horizon_olp_rates(fresh, instance, t)
    fallback = decision.diagnostics.get("olp_fallback", False)
    assert fallback == reference.diagnostics.get("olp_fallback", False), t
    if fallback:
        assert decision.rates == reference.rates == sllf_rates(fresh, instance, t).rates
        return True
    assert "olp_unsolved" not in decision.diagnostics
    evs = _chargeable(fresh, instance, t)[0]
    if not evs:
        assert decision.rates == reference.rates == {}
        return False
    stops = [min(s.departure, instance.horizon) for s in evs]
    a, b = sum(decision.rates.values()), sum(reference.rates.values())
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), (t, a, b)
    after = step(fresh, decision.rates, instance)
    demand = sum(fresh.remaining[s.id] for s in evs)
    assert all(after.remaining[s.id] <= 1e-9 * max(1.0, demand)
               for s, stop in zip(evs, stops) if stop <= t + 1)
    own = Instance(tuple(evs), instance.power, instance.horizon)
    assert failed_cut(residual_instance(after, own, t + 1), [
        s.energy for s in _chargeable(after, own, t + 1)[0]]) is None
    return False


def olp_runs_as_full_horizon(monkeypatch, instances):
    """Run OLP on each instance by `full_scan_simulate`, which asks the
    policy at every slot, and check every decision with
    `assert_as_full_horizon`; returns the fallback count and the
    `olp_unsolved` counts."""
    counts = Counter()

    def checking_olp(state, inst, t):
        decision = olp_rates(state, inst, t)
        counts["fallbacks"] += assert_as_full_horizon(state, inst, decision)
        counts[decision.diagnostics.get("olp_unsolved")] += 1
        return decision

    monkeypatch.setitem(POLICIES, "olp", checking_olp)
    for inst in instances:
        full_scan_simulate(inst, "olp")
    return counts.pop("fallbacks", 0), counts


class TestOlpAgainstFullHorizon:
    def test_same_slot_totals_on_wide_windows(self):
        rng = random.Random(106)
        fallbacks = 0
        for _ in range(300):
            state, inst = random_wide_state(rng)
            fallbacks += assert_as_full_horizon(state, inst, olp_rates(state, inst, state.t))
        assert 30 <= fallbacks <= 270

    @pytest.mark.parametrize("late, unsolved", [
        # "b" arrives while the failed "a" is chargeable: the slot is skipped
        (ChargingSession("b", 1, 5, 1.0, 1.0), "skipped"),
        # "c" arrives after "a" departs: one interval max-flow decides the slot
        (ChargingSession("c", 2, 5, 3.0, 1.0), "checked"),
    ])
    def test_the_paths_without_a_solve(self, late, unsolved):
        # slot 0 falls back over the window [0, 2); the late arrival's window reaches slot 3
        sessions = (ChargingSession("a", 0, 2, 2.0, 1.0), late)
        t = late.arrival
        inst = Instance(sessions, StepwisePower([0.5, 0.5, 1.0, 1.0, 0.5]))
        state = SimState(0, {s.id: s.energy for s in sessions}, {})
        for u in range(t):
            state = step(state, olp_rates(state, inst, u).rates, inst)
        assert olp_rates(state, inst, t).diagnostics["olp_unsolved"] == unsolved

    def test_same_slot_totals_on_random_states(self):
        rng = random.Random(105)
        fallbacks = 0
        for _ in range(400):
            state, inst = random_mid_run_state(rng)
            fallbacks += assert_as_full_horizon(state, inst, olp_rates(state, inst, state.t))
        assert 40 <= fallbacks <= 360

    def test_same_slot_totals_on_corpus_samples(self, monkeypatch, reference_corpus,
                                                spaced_corpus):
        # a run solves at a slot and follows that plan until a session arrives
        sample = reference_corpus[::20] + spaced_corpus[::20]
        fallbacks, unsolved = olp_runs_as_full_horizon(monkeypatch, sample)
        assert fallbacks > 0 and unsolved["skipped"] > 0


class TestOlpKernelDecisions:
    """`decide("olp", ...)` is the direct caller's OLP, `_olp`: the kernel on
    cells keyed by id number and remaining energies by number decides as
    `decide` does on the same state keyed by id, float for float."""

    def test_positional_kernel_decides_as_the_adapter(self):
        rng = random.Random(112)
        decided = Counter()
        for k in range(600):
            state, inst = (random_mid_run_state if k % 2 else random_wide_state)(rng)
            t, number = state.t, {}
            for s in inst.sessions:
                number.setdefault(s.id, len(number))
            remaining = [state.remaining[sid] for sid in number]
            active = inst.active_at(t)
            cells = _cells(active, [number[s.id] for s in active])
            charged, rates, threshold, steps, how = _olp(inst, cells, remaining, t, {})
            want = olp_rates(SimState(t, dict(state.remaining)), inst, t)
            assert repr({cell[3]: r for cell, r in zip(charged, rates)}) == repr(want.rates)
            assert repr(threshold) == repr(want.threshold)
            assert want.diagnostics.get("solver_steps") == steps  # None: none chargeable
            assert want.diagnostics.get("olp_fallback", False) == (how != "solved")
            decided[how] += 1
        assert decided["solved"] > 100 and decided["fallback"] > 100, decided


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


def olp_run(monkeypatch, instance):
    """One OLP run of the instance by `full_scan_simulate`, which asks the
    policy at every slot, and each slot's diagnostics, by slot."""
    diagnostics = {}

    def recording_olp(state, inst, t):
        decision = olp_rates(state, inst, t)
        diagnostics[t] = decision.diagnostics
        return decision

    monkeypatch.setitem(POLICIES, "olp", recording_olp)
    return full_scan_simulate(instance, "olp"), diagnostics


def fresh_solve(decision):
    """Whether an OLP decision is a solve that ships, made at its own slot."""
    return "solver_steps" in decision.diagnostics and "olp_fallback" not in decision.diagnostics


def run_checking_followed_slots(monkeypatch, instance):
    """Run OLP by `full_scan_simulate`, which asks the policy at every slot,
    checking each followed slot against a fresh solve; returns (solves,
    follows)."""
    counts = Counter()

    def checking_olp(state, inst, t):
        plan = state.memory.get("olp")
        decision = olp_rates(state, inst, t)
        counts["solves"] += fresh_solve(decision)
        counts["follows"] += "olp_plan_slot" in decision.diagnostics
        if "olp_plan_slot" in decision.diagnostics:
            fresh = SimState(t, state.remaining, {})
            assert fresh_solve(olp_rates(fresh, inst, t))
            followed = planned_slot_totals(plan, t)
            solved = planned_slot_totals(fresh.memory["olp"], t)
            for tau in sorted(set(followed) | set(solved)):
                a, b = followed.get(tau, 0.0), solved.get(tau, 0.0)
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), (t, tau, a, b)
            assert failed_cut(residual_instance(state, inst, t)) is None
        return decision

    monkeypatch.setitem(POLICIES, "olp", checking_olp)
    full_scan_simulate(instance, "olp")
    return counts["solves"], counts["follows"]


def contended_run_instance(rng: random.Random):
    """`random_run_instance` at a constant power below its P*, so runs fall back."""
    inst = random_run_instance(rng)
    power = ConstantPower(rng.uniform(0.5, 0.95) * min_power_capacity(inst))
    return Instance(inst.sessions, power, inst.horizon)


def perfbench_module(name: str):
    """The benchmark's module `name`, loaded from its file without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracer:
    """The benchmark's tracer wraps names of the package: each must exist,
    and leaving the tracer must put each original back."""

    def test_installs_and_restores_what_it_wraps(self):
        def wrapped():
            return simulator.step, POLICIES["olp"], Instance.__dict__["session"], cli.main

        before = wrapped()
        with perfbench_module("tracer").Tracer().install():
            assert all(a is not b for a, b in zip(wrapped(), before))
        assert all(a is b for a, b in zip(wrapped(), before))


def truncated(instance, cut: int) -> Instance:
    """The instance without the sessions that arrive at or after slot `cut`,
    under the same power and horizon."""
    return Instance(tuple(s for s in instance.sessions if s.arrival < cut), instance.power,
                    instance.horizon)


def assert_sees_only_the_present(instance):
    """Each policy's run of the instance and of its truncation at each later
    arrival time T give the same rows before T, by `repr`; returns the number
    of truncated runs."""
    cuts = sorted({s.arrival for s in instance.sessions})[1:]
    for name in sorted(POLICIES):
        rows = dense(simulate(instance, name)[0]).rates
        for cut in cuts:
            kept = dense(simulate(truncated(instance, cut), name)[0]).rates
            for sid, row in kept.items():
                assert repr(row[:cut]) == repr(rows[sid][:cut]), (name, cut, sid)
    return len(POLICIES) * len(cuts)


class TestOnlyThePresent:
    """Future arrivals are never consulted: cutting them off leaves every
    policy's rates before them as they were."""

    def test_on_random_instances(self):
        rng = random.Random(111)
        instances = [random_run_instance(rng) for _ in range(150)]
        assert any(isinstance(inst.power, StepwisePower) for inst in instances)
        assert any(isinstance(inst.power, ConstantPower) for inst in instances)
        assert sum(map(assert_sees_only_the_present, instances)) > 2000

    def test_on_a_smoke_day_instance(self):
        inst = perfbench_module("workloads").day_instance(42, smoke=True)
        assert assert_sees_only_the_present(inst) > 80


class TestOlpFailedResidual:
    """Runs that skip or check a failed residual fall back where the
    per-slot reference does, slot by slot."""

    def test_same_slot_totals_on_contended_instances(self, monkeypatch):
        rng = random.Random(108)
        instances = [contended_run_instance(rng) for _ in range(150)]
        fallbacks, unsolved = olp_runs_as_full_horizon(monkeypatch, instances)
        assert fallbacks >= 30 and unsolved["skipped"] > 0 and unsolved["checked"] > 0

    def test_same_slot_totals_on_a_smoke_day_instance(self, monkeypatch):
        inst = perfbench_module("workloads").day_instance(42, smoke=True)
        _, unsolved = olp_runs_as_full_horizon(monkeypatch, [inst])
        assert unsolved["skipped"] > 0 and unsolved["checked"] > 0


def how_decided(decision) -> str:
    """How `_olp` decided the slot of an OLP `RateDecision`, by its diagnostics."""
    diagnostics = decision.diagnostics
    if "olp_plan_slot" in diagnostics:
        return "followed"
    if diagnostics.get("olp_fallback"):
        return diagnostics.get("olp_unsolved", "fallback")
    return "solved"


def olp_decisions_both_ways(monkeypatch, instance):
    """Each busy slot's (slot, rates by id, threshold, solver steps, plan
    slot, how) and the `failed_cut` max-flows, first of `simulate`'s OLP
    run, which calls `_olp`, and then of `decide("olp")` with `step` along
    the same run, with one memory."""
    flows, olp = [], simulator._olp
    monkeypatch.setattr(schedulers, "failed_cut",
                        lambda *args: flows.append(1) or failed_cut(*args))
    ran = []

    def recording(inst, span, remaining, t, memory):
        charged, rates, threshold, steps, how = olp(inst, span, remaining, t, memory)
        ran.append((t, repr({cell[3]: r for cell, r in zip(charged, rates)}), repr(threshold),
                    steps, memory["olp"][1] if how == "followed" else None, how))
        return charged, rates, threshold, steps, how

    monkeypatch.setattr(simulator, "_olp", recording)
    simulate(instance, "olp")
    run_flows = len(flows)
    del flows[:]
    busy = {t for a, b, _ in instance.busy_spans() for t in range(a, b)}
    stepped, state = [], SimState(0, initial_state(instance).remaining, {})
    for t in range(instance.horizon):
        decision = decide("olp", state, instance, t)
        if t in busy:
            stepped.append((t, repr(decision.rates), repr(decision.threshold),
                            decision.diagnostics.get("solver_steps"),
                            decision.diagnostics.get("olp_plan_slot"), how_decided(decision)))
        state = step(state, decision.rates, instance)
    return (ran, run_flows), (stepped, len(flows))


class TestOlpDirectCallers:
    """`decide("olp")` with `step` along a run, with one memory, decides as
    the run's kernel does, and keeps the run's cut, so it runs as many
    max-flows."""

    def test_on_a_smoke_day_instance(self, monkeypatch):
        inst = perfbench_module("workloads").day_instance(42, smoke=True)
        run, stepped = olp_decisions_both_ways(monkeypatch, inst)
        assert stepped == run
        checks = sum(d[5] == "checked" for d in run[0])
        assert checks > run[1], (checks, run[1])  # the cut decided some checks

    def test_a_kept_cut_decides_once_a_second_session_departs(self, monkeypatch):
        # "b" needs the whole power at every slot, beside "a" and "c", so the
        # residual never ships; slot 0 falls back, slot 2, after "a" has
        # left, is checked by a max-flow, and slot 4, after "c" has left,
        # by that check's cut
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),
                         ChargingSession("b", 0, 10, 10.0, 1.0),
                         ChargingSession("c", 0, 4, 1.0, 1.0)), ConstantPower(1.0))
        run, stepped = olp_decisions_both_ways(monkeypatch, inst)
        assert stepped == run
        assert [d[5] for d in run[0]] == ["fallback", "skipped", "checked", "skipped",
                                          "checked"] + ["skipped"] * 5
        assert run[1] == 1


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

    def test_fallback_leaves_no_plan(self):
        inst = Instance((ChargingSession("a", 0, 2, 2.0, 1.0),), ConstantPower(0.5))
        state = SimState(0, {"a": 2.0}, {})
        assert olp_rates(state, inst, 0).diagnostics["olp_fallback"] is True
        # no plan, but the sessions of the failed residual, held by object
        assert state.memory == {"olp": None,
                                "olp_infeasible": (inst, frozenset({id(inst.sessions[0])}))}
        decision = olp_rates(step(state, {"a": 0.5}, inst), inst, 1)
        assert decision.diagnostics["olp_fallback"] is True
        assert decision.diagnostics["olp_unsolved"] == "skipped"

    def test_residual_is_checked_again_once_a_session_departs(self, monkeypatch):
        # slot 0 cannot ship "a"'s 2.0 at power 0.8; "a" leaves at slot 2 and
        # "b"'s residual then ships, so the check hands slot 2 to a solve
        inst = Instance((ChargingSession("a", 0, 2, 2.0, 1.0),
                         ChargingSession("b", 0, 4, 1.0, 1.0)), ConstantPower(0.8))
        _, diagnostics = olp_run(monkeypatch, inst)
        assert diagnostics[0]["olp_fallback"] is True
        assert "olp_unsolved" not in diagnostics[0]
        assert diagnostics[1]["olp_unsolved"] == "skipped"
        assert set(diagnostics[2]) == {"solver_steps"}
        assert diagnostics[3] == {"olp_plan_slot": 2}

    def test_failed_residual_is_checked_again_on_one_interval_max_flow(self, monkeypatch):
        # "a" departs unfinished at slot 2 and "c" arrives with more than the
        # power left can ship: the interval network decides with one max-flow
        inst = Instance((ChargingSession("a", 0, 2, 2.0, 1.0),
                         ChargingSession("c", 2, 5, 3.0, 1.0)),
                        StepwisePower([0.5, 0.5, 1.0, 1.0, 0.5]))
        calls = []
        max_flow = FlowGraph.max_flow
        monkeypatch.setattr(FlowGraph, "max_flow",
                            lambda g, s, t: calls.append(g.n) or max_flow(g, s, t))
        _, diagnostics = olp_run(monkeypatch, inst)
        assert [d.get("olp_unsolved") for d in diagnostics.values()] == [
            None, "skipped", "checked", "skipped", "skipped"]
        # slot 0's solve runs no max-flow; slot 2's network has "c" and the
        # intervals [2, 4) and [4, 5), cut where the power changes
        assert calls == [2 + 1 + 2]

    def test_only_a_checked_residual_builds_a_graph(self, monkeypatch):
        # a solve works on its sessions' rows; the one FlowGraph of a run is
        # that of `failed_cut` on a failed residual
        built, init = [], FlowGraph.__init__
        monkeypatch.setattr(FlowGraph, "__init__", lambda g, n: built.append(n) or init(g, n))
        ships = Instance((ChargingSession("a", 0, 3, 1.0, 1.0),
                          ChargingSession("b", 1, 4, 2.0, 1.0)), ConstantPower(1.0))
        _, diagnostics = olp_run(monkeypatch, ships)
        assert [set(d) for d in diagnostics.values()] == [
            {"solver_steps"}, {"solver_steps"}, {"olp_plan_slot"}, set()]
        assert built == []
        checked = Instance((ChargingSession("a", 0, 2, 2.0, 1.0),
                            ChargingSession("c", 2, 5, 3.0, 1.0)),
                           StepwisePower([0.5, 0.5, 1.0, 1.0, 0.5]))
        _, diagnostics = olp_run(monkeypatch, checked)
        assert [d.get("olp_unsolved") for d in diagnostics.values()] == [
            None, "skipped", "checked", "skipped", "skipped"]
        assert built == [2 + 1 + 2]

    def test_run_memory_takes_no_part_in_equality(self):
        assert SimState(0, {"a": 1.0}, {"olp": None}) == SimState(0, {"a": 1.0})


def run_checking_plans(monkeypatch, instance):
    """Simulate OLP, checking the plan each solve stores; returns (solves,
    solves that started from an earlier plan)."""
    counts, olp = Counter(), simulator._olp

    def checking_olp(inst, cells, remaining, t, memory):
        live = _live(cells, remaining)[0]
        evs = [cell[5] for cell in live]
        earlier = memory.get("olp")
        warm = earlier is not None and any(id(s) in earlier[3] for s in evs)
        decided = olp(inst, cells, remaining, t, memory)
        if decided[4] != "solved" or not evs:
            return decided
        counts["solves"] += 1
        counts["warm"] += warm
        owner, start, end, planned = memory["olp"]
        assert owner is inst and start == t and set(planned) == {id(s) for s in evs}
        left = {cell[3]: remaining[cell[0]] for cell in cells}  # by id, as a `SimState` keeps it
        demand = sum(left[s.id] for s in evs)
        for s in evs:
            row = planned[id(s)]
            assert len(row) == min(s.departure, inst.horizon) - t
            assert all(0.0 <= r <= s.max_rate + RATE_TOL for r in row), (t, s.id)
            assert abs(sum(row) - left[s.id]) <= 1e-9 * max(1.0, demand), (t, s.id)
        totals = planned_slot_totals(memory["olp"], t)
        for tau, total in totals.items():
            p = inst.power.at(tau)
            assert total <= p + RATE_TOL * max(1.0, p), (t, tau)
        cold = SimState(t, left, {})
        olp_rates(cold, inst, t)
        for tau, a in planned_slot_totals(cold.memory["olp"], t).items():
            b = totals[tau]
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), (t, tau, a, b)
        return decided

    monkeypatch.setattr(simulator, "_olp", checking_olp)
    simulate(instance, "olp")
    return counts["solves"], counts["warm"]


class TestOlpPlanValidity:
    """Every stored plan keeps the rates and the power, ships each held
    session's remaining energy, and has a cold solve's slot totals."""

    def test_plans_on_random_instances(self, monkeypatch):
        rng = random.Random(109)
        solves = warm = 0
        for _ in range(200):
            s, w = run_checking_plans(monkeypatch, random_run_instance(rng))
            solves, warm = solves + s, warm + w
        assert warm > 100 and solves > warm

    def test_plans_on_contended_instances(self, monkeypatch):
        rng = random.Random(110)
        solves = warm = 0
        for _ in range(100):
            s, w = run_checking_plans(monkeypatch, contended_run_instance(rng))
            solves, warm = solves + s, warm + w
        assert warm > 20 and solves > warm


class TestAllPolicies:
    def test_registry(self):
        assert set(POLICIES) == {"sllf", "llf", "edf", "es", "rep", "olp"}
        assert all(POLICIES[name].func is decide and POLICIES[name].args == (name,)
                   for name in POLICIES)
        with pytest.raises(KeyError):
            decide("nope", SimState(0, {}), Instance((), ConstantPower(1.0)), 0)

    def test_runs_have_a_kernel_for_each_policy_name(self):
        assert set(KERNELS) == set(POLICIES)
        assert KERNELS["olp"] is _olp and KERNELS["sllf"] is _sllf

    @pytest.mark.parametrize("energy, remaining", [
        (math.nan, 0.5), (math.nan, 5e-13), (0.5, 5e-13), (0.5, 2e-12), (4.0, 3e-12),
        (4.0, 5e-12), (-1.0, 2e-12)])
    def test_chargeable_as_full_scan(self, energy, remaining):
        # the finished threshold FINISHED_EPS * max(1.0, energy), a NaN energy included
        inst = Instance((ChargingSession("a", 0, 2, energy, 1.0),), ConstantPower(1.0))
        state = SimState(0, {"a": remaining})
        assert _chargeable(state, inst, 0) == full_scan_chargeable(state, inst, 0)

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
