import math

import pytest

from evcs.model import ChargingSession, ConstantPower, Instance, StepwisePower, validate


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

    def test_validate_is_pure(self, instance_ia):
        first = validate(instance_ia)
        assert validate(instance_ia) == first == []

