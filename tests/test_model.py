import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from evcs.model import (ChargingSession, ConstantPower, Instance, StepwisePower, Violation,
                        validate)


def codes(instance):
    return {v.code for v in validate(instance)}


class TestInstanceConstruction:
    def test_horizon_defaults_to_latest_departure(self):
        inst = Instance((ChargingSession("a", 0, 3, 1.0, 1.0),
                         ChargingSession("b", 1, 7, 1.0, 1.0)), ConstantPower(1.0))
        assert inst.horizon == 7

    def test_declared_horizon_is_kept(self):
        inst = Instance((ChargingSession("a", 0, 5, 1.0, 1.0),), ConstantPower(1.0),
                        horizon=2)
        assert inst.horizon == 2
        assert "window-out-of-range" in codes(inst)

    def test_horizon_may_extend_past_departures(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),), ConstantPower(1.0),
                        horizon=9)
        assert inst.horizon == 9

    def test_session_lookup(self):
        s = ChargingSession("x", 0, 2, 1.0, 1.0)
        inst = Instance((s,), ConstantPower(1.0))
        assert inst.session("x") is s
        with pytest.raises(KeyError):
            inst.session("missing")

    def test_empty_instance(self):
        inst = Instance((), ConstantPower(1.0))
        assert inst.horizon == 0
        assert validate(inst) == []


_any_session = st.builds(ChargingSession, st.sampled_from(["a", "b", "c", "d"]),
                         st.integers(-4, 12), st.integers(-4, 12), st.just(1.0), st.just(1.0))


class TestActiveAt:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_any_session, max_size=8), st.integers(0, 14))
    def test_matches_brute_force(self, sessions, horizon):
        # negative arrivals, empty sojourns and repeated ids included:
        # `validate` rejects them, library callers may still pass them
        inst = Instance(sessions, ConstantPower(1.0), horizon)
        for t in range(-1, inst.horizon + 2):
            expected = tuple(s for s in inst.sessions if s.arrival <= t < s.departure)
            assert inst.active_at(t) == expected

    def test_index_is_built_once_and_kept_out_of_equality(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),), ConstantPower(1.0))
        first = inst.active_at(0)
        assert inst.active_at(0) is first
        assert inst == Instance(inst.sessions, inst.power, inst.horizon)
        assert inst.active_at(2) == () and inst.active_at(-5) == ()


class TestPowerProfiles:
    def test_constant(self):
        p = ConstantPower(2.5)
        assert p.at(0) == p.at(99) == 2.5
        assert p.bounds(10) == (2.5, 2.5)
        assert p.scaled(2.0).power == 5.0

    def test_stepwise(self):
        p = StepwisePower([1.0, 3.0, 2.0])
        assert p.at(1) == 3.0
        assert p.bounds(3) == (1.0, 3.0)
        assert p.bounds(2) == (1.0, 3.0)
        assert p.scaled(0.5).values == (0.5, 1.5, 1.0)

    def test_stepwise_coerces_to_float_tuple(self):
        p = StepwisePower([1, 2])
        assert p.values == (1.0, 2.0)
        assert all(isinstance(v, float) for v in p.values)


class TestValidate:
    def test_well_formed(self, instance_ia):
        assert validate(instance_ia) == []

    def test_duplicate_id(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),
                         ChargingSession("a", 0, 2, 1.0, 1.0)), ConstantPower(1.0))
        assert "duplicate-id" in codes(inst)

    def test_empty_sojourn(self):
        inst = Instance((ChargingSession("a", 2, 2, 1.0, 1.0),), ConstantPower(1.0),
                        horizon=4)
        assert "empty-sojourn" in codes(inst)

    def test_window_out_of_range(self):
        inst = Instance((ChargingSession("a", -1, 2, 1.0, 1.0),), ConstantPower(1.0))
        assert "window-out-of-range" in codes(inst)

    def test_nonpositive_energy_and_rate(self):
        inst = Instance((ChargingSession("a", 0, 2, 0.0, 1.0),
                         ChargingSession("b", 0, 2, 1.0, -1.0)), ConstantPower(1.0))
        assert {"nonpositive-energy", "nonpositive-rate-cap"} <= codes(inst)

    def test_individually_unsatisfiable(self):
        inst = Instance((ChargingSession("a", 0, 2, 2.5, 1.0),), ConstantPower(5.0))
        assert codes(inst) == {"individually-unsatisfiable"}

    def test_exactly_satisfiable_is_fine(self):
        inst = Instance((ChargingSession("a", 0, 2, 2.0, 1.0),), ConstantPower(5.0))
        assert validate(inst) == []

    def test_negative_horizon(self):
        assert codes(Instance((), ConstantPower(1.0), horizon=-3)) == {"negative-horizon"}

    def test_power_profile_short(self):
        inst = Instance((ChargingSession("a", 0, 3, 1.0, 1.0),), StepwisePower([1.0, 1.0]))
        assert "power-profile-short" in codes(inst)

    def test_negative_power(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),), StepwisePower([1.0, -0.5]))
        assert "negative-power" in codes(inst)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_session_fields(self, value):
        for energy, max_rate in ((value, 1.0), (1.0, value)):
            inst = Instance((ChargingSession("a", 0, 3, energy, max_rate),),
                            ConstantPower(1.0))
            assert "non-finite" in codes(inst)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_power(self, value):
        for power in (ConstantPower(value), StepwisePower([1.0, value])):
            inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),), power)
            assert "non-finite" in codes(inst)

    def test_constant_power_is_checked_once(self):
        # neither the time nor the report grows with the horizon
        start = time.perf_counter()
        assert validate(Instance((), ConstantPower(1.0), 10**12)) == []
        assert time.perf_counter() - start < 1.0
        problems = validate(Instance((), ConstantPower(-1.0), 5))
        assert problems == [Violation("negative-power", "slot 0", "P(0) = -1.0 < 0")]

    def test_stepwise_power_reports_each_slot_then_short(self):
        inst = Instance((), StepwisePower([1.0, -1.0, math.nan]), 4)
        assert [(v.code, v.subject) for v in validate(inst)] == [
            ("negative-power", "slot 1"), ("non-finite", "slot 2"),
            ("power-profile-short", "slot 3")]
        assert validate(Instance((), StepwisePower([1.0, -1.0]), 1)) == []

    def test_validate_is_pure(self, instance_ia):
        first = validate(instance_ia)
        assert validate(instance_ia) == first == []

