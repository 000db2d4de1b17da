import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from evcs.model import (ChargingSession, ConstantPower, ContractError, Instance, StepwisePower,
                        Violation, validate)


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


class TestBusySpans:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_any_session, max_size=8), st.integers(0, 14), st.data())
    def test_spans_cover_the_busy_slots(self, sessions, horizon, data):
        # the session draw of TestActiveAt, under a power that covers the horizon
        power = data.draw(st.one_of(
            st.just(ConstantPower(1.0)),
            st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=horizon,
                     max_size=horizon + 2).map(StepwisePower)))
        inst = Instance(sessions, power, horizon)
        slots = []
        for start, end, positions in inst.busy_spans():
            assert 0 <= start < end <= horizon
            assert not slots or slots[-1] < start  # ordered and disjoint
            for t in range(start, end):
                assert tuple(inst.sessions[k] for k in positions) == inst.active_at(t)
                assert power.at(t) == power.at(start)
            slots += range(start, end)
        assert slots == [t for t in range(horizon) if inst.active_at(t)]


def _event_points(inst):
    """0, each arrival and departure of a non-empty sojourn, and each slot in
    (0, max(horizon, 0)) at which the stepwise power changes (`!=`, so a NaN
    from every value), found slot by slot."""
    points = {0} | {t for s in inst.sessions if s.arrival < s.departure
                    for t in (s.arrival, s.departure)}
    if isinstance(inst.power, StepwisePower):
        values = inst.power.values
        points |= {t for t in range(1, max(inst.horizon, 0)) if values[t] != values[t - 1]}
    return points


def _brute_spans(inst):
    """The stretches of [0, max(horizon, 0)) cut at exactly the event points
    inside it, each with the positions active at its first slot."""
    top = max(inst.horizon, 0)
    cuts = sorted({0, top} | {p for p in _event_points(inst) if 0 < p < top})
    return [(a, b, tuple(k for k, s in enumerate(inst.sessions) if s.arrival <= a < s.departure))
            for a, b in zip(cuts, cuts[1:])]


class TestSpans:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_any_session, max_size=8), st.integers(-2, 14), st.data())
    def test_spans_partition_the_horizon_at_the_event_points(self, sessions, horizon, data):
        # idle spans included; a stepwise power may hold NaN, which is a change
        # at every slot it touches
        top = max(horizon, 0)
        power = data.draw(st.one_of(
            st.just(ConstantPower(1.0)),
            st.lists(st.sampled_from([0.0, 0.5, 2.0, math.nan]), min_size=top,
                     max_size=top + 2).map(StepwisePower)))
        inst = Instance(sessions, power, horizon)
        spans = list(inst.spans())
        assert spans == _brute_spans(inst)
        for a, b, positions in spans:
            for t in range(a, b):  # every slot of a stretch has its positions
                assert positions == tuple(k for k, s in enumerate(inst.sessions)
                                          if s.arrival <= t < s.departure)
                assert tuple(inst.sessions[k] for k in positions) == inst.active_at(t)
        assert list(inst.busy_spans()) == [span for span in spans if span[2]]
        assert list(inst.spans()) == spans  # the kept lists are not consumed

    def test_repeated_session_object_stays_two_positions(self):
        s = ChargingSession("a", 0, 2, 1.0, 1.0)
        inst = Instance((s, ChargingSession("b", 1, 3, 1.0, 1.0), s), ConstantPower(1.0), 4)
        assert list(inst.spans()) == [(0, 1, (0, 2)), (1, 2, (0, 1, 2)), (2, 3, (1,)),
                                      (3, 4, ())]
        assert list(inst.busy_spans()) == list(inst.spans())[:3]

    def test_short_stepwise_profile_raises_by_the_first_iteration(self):
        # as when each call walked the event points: no later than the first
        # item of `spans()` or `busy_spans()`, and at every call, since a
        # failed index is not kept
        inst = Instance((ChargingSession("a", 0, 3, 1.0, 1.0),), StepwisePower([1.0, 2.0]), 4)
        message = "^stepwise power has no value for slot 2 of horizon 4$"
        for _ in range(2):
            with pytest.raises(ContractError, match=message):
                next(inst.spans())
            with pytest.raises(ContractError, match=message):
                next(inst.busy_spans())
            with pytest.raises(ContractError, match=message):
                inst.active_at(0)
        assert "power-profile-short" in codes(inst)  # validate reports it, without raising
        # a profile that covers the horizon is enough, the slots past it unread
        assert list(Instance(inst.sessions, StepwisePower([1.0, 2.0]), 2).spans()) == [
            (0, 1, (0,)), (1, 2, (0,))]


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

    def test_finite_fields_whose_products_overflow(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1e308),
                         ChargingSession("b", 0, 2, 1e308, 1e308)), ConstantPower(1e308))
        assert [(v.code, v.subject, v.message) for v in validate(inst)] == [
            ("non-finite", "a", "max rate 1e+308 * sojourn 2 overflows"),
            ("non-finite", "b", "max rate 1e+308 * sojourn 2 overflows"),
            ("non-finite", "demand", "total energy 1e+308 * horizon 2 overflows"),
            ("non-finite", "power", "largest power 1e+308 * horizon 2 overflows"),
        ]

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

