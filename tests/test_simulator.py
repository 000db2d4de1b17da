import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from evcs.dynamics import initial_state, min_laxity
from evcs.feasibility import is_offline_feasible, offline_feasible, validate_schedule
from evcs.model import (ChargingSession, ConstantPower, ContractError, Instance, StepwisePower,
                        validate)
from evcs.schedulers import POLICIES, RateDecision
from evcs.simulator import (PolicyContractError, binned_success_rates,
                            instance_metrics, separation_witness, simulate,
                            success_rate)

from sim_oracle import assert_dense_metrics, dense, full_scan_simulate


def witness_instance():
    """Offline feasible; sLLF completes it, plain LLF does not."""
    return Instance((ChargingSession("s0", 0, 2, 1.08, 1.0),
                     ChargingSession("s1", 0, 3, 1.42, 0.5),
                     ChargingSession("s2", 1, 3, 1.59, 1.0)), ConstantPower(1.45))


class TestSimulate:
    def test_canonical_sllf(self, instance_ia):
        schedule, verdict = simulate(instance_ia, "sllf")
        assert verdict.feasible
        assert schedule.rates["EV1"] == pytest.approx((0.25, 0.5), abs=1e-8)
        assert schedule.rates["EV2"] == pytest.approx((0.75, 0.5), abs=1e-8)
        assert schedule.total_variation() == pytest.approx(0.5, abs=1e-8)

    def test_canonical_llf_oscillates_more(self, instance_ia):
        schedule, verdict = simulate(instance_ia, "llf")
        assert verdict.feasible
        assert schedule.rates["EV1"] == pytest.approx((0.0, 0.75))
        assert schedule.rates["EV2"] == pytest.approx((1.0, 0.25))
        assert schedule.total_variation() == pytest.approx(1.5)

    def test_deterministic(self, reference_corpus):
        inst = reference_corpus[0]
        for name in POLICIES:
            a, va = simulate(inst, name)
            b, vb = simulate(inst, name)
            assert a.rates == b.rates
            assert va == vb

    def test_unknown_policy(self, instance_ia):
        with pytest.raises(KeyError):
            simulate(instance_ia, "nope")

    def test_unmet_energy_reported(self):
        inst = Instance((ChargingSession("a", 0, 2, 2.0, 1.0),), ConstantPower(0.5))
        _, verdict = simulate(inst, "sllf")
        assert not verdict.feasible
        assert verdict.unmet_energy["a"] == pytest.approx(1.0)

    def test_agrees_with_schedule_validation(self, reference_corpus):
        rng = random.Random(5)
        for inst in rng.sample(reference_corpus, 10):
            for name in ("sllf", "edf", "rep"):
                schedule, verdict = simulate(inst, name)
                checked = validate_schedule(inst, schedule)
                unmet_codes = {v.code for v in checked.violations}
                assert verdict.feasible == ("demand-unmet" not in unmet_codes)
                assert unmet_codes <= {"demand-unmet"}, unmet_codes
                for sid, u in verdict.unmet_energy.items():
                    assert u == pytest.approx(checked.unmet_energy[sid], abs=1e-9)

    def test_policy_success_implies_offline_feasible(self, reference_corpus):
        rng = random.Random(6)
        for inst in rng.sample(reference_corpus, 15):
            for name in POLICIES:
                if simulate(inst, name)[1].feasible:
                    assert offline_feasible(inst)[0]

    def test_online_causality(self):
        """Rates before a session's arrival cannot depend on that session."""
        base = (ChargingSession("u", 0, 4, 1.5, 1.0),
                ChargingSession("v", 0, 5, 2.0, 1.0))
        late_a = ChargingSession("w", 3, 6, 1.0, 1.0)
        late_b = ChargingSession("w", 3, 6, 2.5, 1.0)
        for name in POLICIES:
            sch_a, _ = simulate(Instance(base + (late_a,), ConstantPower(1.5)), name)
            sch_b, _ = simulate(Instance(base + (late_b,), ConstantPower(1.5)), name)
            for sid in ("u", "v"):
                assert sch_a.rates[sid][:3] == sch_b.rates[sid][:3], name

    def test_contract_breach_detected(self, instance_ia):
        bad_decisions = (
            {"EV1": 2.0},              # above the rate cap
            {"EV1": -0.5},             # negative rate
            {"EV1": 0.6, "EV2": 0.6},  # total above the power limit
            {"ghost": 0.5},            # no such session
            {"EV1": math.nan},
        )
        try:
            for rates in bad_decisions:
                POLICIES["__bad__"] = lambda state, inst, t: RateDecision(rates)
                with pytest.raises(PolicyContractError):
                    simulate(instance_ia, "__bad__")
        finally:
            del POLICIES["__bad__"]

    def test_idle_slots_read_no_power(self):
        # negative power only before the first arrival and in the idle tail;
        # `validate` rejects it, `simulate` never reads it
        sessions = (ChargingSession("a", 2, 4, 1.5, 1.0), ChargingSession("b", 3, 5, 1.0, 1.0))
        negative = Instance(sessions, StepwisePower([-1.0, -2.0, 1.5, 1.5, 1.5, -1.0, -3.0]))
        zeroed = Instance(sessions, StepwisePower([0.0, 0.0, 1.5, 1.5, 1.5, 0.0, 0.0]))
        assert {v.code for v in validate(negative)} == {"negative-power"}
        assert validate(zeroed) == []
        for name in POLICIES:
            schedule, verdict = simulate(negative, name)
            expected, expected_verdict = simulate(zeroed, name)
            assert dense(schedule) == dense(expected), name
            assert repr(verdict) == repr(expected_verdict), name
            assert repr((schedule._metrics(), min_laxity(negative, schedule))) == \
                repr((expected._metrics(), min_laxity(zeroed, expected))), name

    @pytest.mark.parametrize("powers, slot", [([1.0, math.nan], 1), ([math.nan, math.nan], 0)])
    def test_nan_power_at_a_busy_slot_is_a_contract_error(self, powers, slot):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),), StepwisePower(powers))
        for name in POLICIES:
            with pytest.raises(PolicyContractError, match=f"at slot {slot}$"):
                simulate(inst, name)

    def test_short_stepwise_power_is_the_oracles_contract_error(self):
        # the run and the oracle read one event index, which checks the profile
        inst = Instance((ChargingSession("a", 0, 3, 1.0, 1.0),), StepwisePower([1.0]), 3)
        message = "^stepwise power has no value for slot 1 of horizon 3$"
        with pytest.raises(ContractError, match=message):
            is_offline_feasible(inst)
        for name in POLICIES:
            with pytest.raises(ContractError, match=message):
                simulate(inst, name)


class TestAggregation:
    def test_success_rate_empty_corpus_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert success_rate([], "sllf") == 1.0
        assert caught

    def test_success_rate_counts(self, instance_ia):
        bad = Instance((ChargingSession("a", 0, 2, 2.0, 1.0),), ConstantPower(0.5))
        assert success_rate([instance_ia, bad], "sllf") == 0.5

    def test_instance_metrics(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),
                         ChargingSession("b", 0, 8, 2.0, 1.0)), ConstantPower(2.0))
        ratio, norm_lax = instance_metrics(inst)
        assert ratio == pytest.approx(4.0)
        # session a: laxity 2 - 1 = 1 over sojourn 2; session b: 6/8
        assert norm_lax == pytest.approx(min(1 / 2, 6 / 8))

    def test_instance_metrics_without_sessions(self):
        assert instance_metrics(Instance((), ConstantPower(1.0), 0)) == (1.0, 1.0)

    def test_binned_rates_partition_equally(self, instance_ia):
        instances = [instance_ia] * 9
        flags = [True] * 4 + [False] * 5
        bins = binned_success_rates(instances, flags, 0, 3)
        assert [count for _, _, count, _ in bins] == [3, 3, 3]
        total = sum(rate * count for _, _, count, rate in bins)
        assert total == pytest.approx(4)

    def test_separation_witness_found(self):
        inst = witness_instance()
        assert offline_feasible(inst)[0]
        assert separation_witness([inst]) is inst

    def test_separation_witness_absent(self, instance_ia):
        # LLF completes the canonical instance, so no witness exists here
        assert separation_witness([instance_ia]) is None


@st.composite
def valid_instances(draw):
    """Small valid instances with simultaneous arrivals, arrivals at another
    session's departure, idle gaps and idle tails, and stepwise power that is
    zero in some slots."""
    sessions, departures = [], []
    for k in range(draw(st.integers(0, 6))):
        if departures and draw(st.booleans()):
            arrival = draw(st.sampled_from(departures))
        else:
            arrival = draw(st.integers(0, 10))
        departure = arrival + draw(st.integers(1, 8))
        max_rate = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        energy = max_rate * (departure - arrival) * draw(st.floats(0.05, 1.0))
        sessions.append(ChargingSession(f"s{k}", arrival, departure, energy, max_rate))
        departures.append(departure)
    horizon = max(departures, default=0) + draw(st.integers(0, 3))
    if draw(st.booleans()):
        power = ConstantPower(draw(st.floats(0.0, 6.0)))
    else:
        power = StepwisePower(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
                                            min_size=horizon, max_size=horizon)))
    return Instance(sessions, power, horizon)


def assert_same_run(instance, policy):
    """`simulate` returns the full-scan run's repr once its schedule is made
    dense, and the windowed metrics are those of the dense schedule."""
    schedule, verdict = simulate(instance, policy)
    assert repr((dense(schedule), verdict)) == repr(full_scan_simulate(instance, policy))
    assert_dense_metrics(instance, schedule)


class TestAgainstFullScan:
    @settings(max_examples=150, deadline=None)
    @given(valid_instances(), st.sampled_from(sorted(POLICIES)))
    def test_same_runs_on_drawn_instances(self, instance, policy):
        assert validate(instance) == []
        assert_same_run(instance, policy)

    def test_same_runs_on_corpus_samples(self, reference_corpus, spaced_corpus):
        for instance in reference_corpus[::20] + spaced_corpus[::20]:
            for policy in POLICIES:
                assert_same_run(instance, policy)

    @pytest.mark.parametrize("sessions, horizon", [
        ((ChargingSession("a", -2, 2, 1.0, 1.0), ChargingSession("b", 0, 3, 1.0, 1.0)), 3),
        ((ChargingSession("a", 3, 1, 1.0, 1.0), ChargingSession("b", 1, 1, 1.0, 1.0)), 4),
        ((ChargingSession("a", 3, 1, 1.0, 1.0),), 4),
        ((ChargingSession("a", 0, 6, 2.0, 1.0), ChargingSession("b", 2, 9, 1.0, 1.0)), 4),
        ((ChargingSession("a", 0, 2, 1.0, 1.0), ChargingSession("a", 3, 5, 1.0, 1.0)), 5),
        ((ChargingSession("a", 0, 5, 2.0, 1.0), ChargingSession("a", 3, 8, 4.0, 1.0)), 8),
        ((ChargingSession("a", 0, 5, 2.0, 2.0), ChargingSession("a", 3, 8, 4.0, 0.5)), 8),
    ], ids=["negative-arrival", "empty-sojourns", "only-empty-sojourn",
            "departure-past-horizon", "duplicate-id", "overlapping-duplicate-id",
            "duplicate-id-distinct-peak-rates"])
    def test_same_runs_on_invalid_instances(self, sessions, horizon):
        # library callers may simulate what `validate` rejects
        instance = Instance(sessions, ConstantPower(1.5), horizon)
        assert validate(instance)
        initial = initial_state(instance).remaining
        for policy in POLICIES:
            assert_same_run(instance, policy)
            # each row records what was charged, whichever session its id names
            schedule, verdict = simulate(instance, policy)
            for sid, row in schedule.rates.items():
                assert sum(row) == pytest.approx(initial[sid] - verdict.unmet_energy[sid],
                                                 abs=1e-12), (policy, sid)
