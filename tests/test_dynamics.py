import math
import random

import pytest
from hypothesis import given, strategies as st

from evcs.dynamics import Schedule, SimState, initial_state, laxity, min_laxity, step
from evcs.model import ChargingSession, ConstantPower, ContractError, Instance, StepwisePower

from sim_oracle import dense, dense_metrics, full_scan_step, slot_total


class TestLaxity:
    def test_infinite_before_arrival(self):
        s = ChargingSession("a", 3, 8, 2.0, 1.0)
        assert laxity(s, 0, 2.0) == math.inf
        assert laxity(s, 2, 2.0) == math.inf
        assert laxity(s, 3, 2.0) == 5.0 - 2.0

    def test_closed_form(self):
        s = ChargingSession("a", 0, 10, 4.0, 2.0)
        assert laxity(s, 0, 4.0) == 10 - 2.0
        assert laxity(s, 7, 1.0) == 3 - 0.5

    def test_negative_past_the_point_of_no_return(self):
        s = ChargingSession("a", 0, 2, 1.0, 1.0)
        assert laxity(s, 2, 0.5) == -0.5

    def test_clamped_after_departure(self):
        s = ChargingSession("a", 0, 2, 1.0, 1.0)
        assert laxity(s, 5, 1.0) == -1.0

    def test_rejects_negative_remaining(self):
        s = ChargingSession("a", 0, 2, 1.0, 1.0)
        with pytest.raises(ContractError):
            laxity(s, 0, -0.1)

    @given(st.integers(min_value=0, max_value=20),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.1, max_value=5.0))
    def test_decreases_by_one_per_idle_slot_inside_window(self, t, rem, r_bar):
        s = ChargingSession("a", 0, 30, 1.0, r_bar)
        assert laxity(s, t + 1, rem) == pytest.approx(laxity(s, t, rem) - 1.0)

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0))
    def test_monotone_in_remaining_energy(self, a, b):
        s = ChargingSession("a", 0, 5, 2.0, 1.0)
        lo, hi = min(a, b), max(a, b)
        assert laxity(s, 1, hi) <= laxity(s, 1, lo)


class TestStep:
    def test_advances_time_and_depletes(self, instance_ia):
        state = initial_state(instance_ia)
        nxt = step(state, {"EV1": 0.25, "EV2": 0.75}, instance_ia)
        assert nxt.t == 1
        assert nxt.remaining == {"EV1": 0.5, "EV2": 0.5}
        # purity: the input state is untouched
        assert state.t == 0 and state.remaining["EV1"] == 0.75

    def test_omitted_sessions_idle(self, instance_ia):
        nxt = step(initial_state(instance_ia), {}, instance_ia)
        assert nxt.remaining == {"EV1": 0.75, "EV2": 1.25}

    def test_rejects_rate_above_cap(self, instance_ia):
        with pytest.raises(ContractError):
            step(initial_state(instance_ia), {"EV1": 1.5}, instance_ia)

    def test_rejects_rate_above_remaining(self, instance_ia):
        state = initial_state(instance_ia)
        with pytest.raises(ContractError):
            step(state, {"EV1": 0.9}, instance_ia)

    def test_rejects_power_overdraw(self, instance_ia):
        with pytest.raises(ContractError):
            step(initial_state(instance_ia), {"EV1": 0.5, "EV2": 0.9}, instance_ia)

    def test_rejects_charging_inactive_session(self):
        inst = Instance((ChargingSession("a", 2, 4, 1.0, 1.0),), ConstantPower(1.0))
        with pytest.raises(ContractError):
            step(initial_state(inst), {"a": 0.5}, inst)

    def test_tolerates_float_noise_at_the_cap(self, instance_ia):
        state = initial_state(instance_ia)
        nxt = step(state, {"EV1": 0.75 + 1e-12}, instance_ia)
        assert nxt.remaining["EV1"] == 0.0

    def test_remaining_never_negative(self):
        inst = Instance((ChargingSession("a", 0, 2, 0.5, 1.0),), ConstantPower(1.0))
        nxt = step(initial_state(inst), {"a": 0.5}, inst)
        assert nxt.remaining["a"] == 0.0

    def test_no_remaining_energy_rises(self):
        # negative, -0.0 and NaN peak rates and remaining energies: a rate is
        # charged at no less than 0.0 whatever its cap, as in the full scan
        rng, stepped = random.Random(39), 0
        for _ in range(1000):
            sessions = [ChargingSession(f"s{k}", 0, 3, 1.0, rng.choice(
                [1.0, 0.5, 0.0, -0.0, -1e-12, -1.0, math.nan])) for k in range(rng.randint(1, 4))]
            inst = Instance(sessions, ConstantPower(rng.choice([0.0, 1.0, 10.0])))
            state = SimState(0, {s.id: rng.choice([2.0, 0.5, 1e-13, 0.0, -0.0, -1e-12, -1.0,
                                                   math.nan]) for s in sessions})
            rates = {s.id: rng.choice([0.0, -0.0, 1e-10, -1e-10, 0.5, 1.0]) for s in sessions}
            assert outcome(step, state, rates, inst) == \
                outcome(full_scan_step, state, rates, inst)
            try:
                after = step(state, rates, inst).remaining
            except ContractError:
                continue
            assert not any(after[sid] > rem for sid, rem in state.remaining.items())
            stepped += 1
        assert stepped > 150, stepped

    def test_same_outcome_as_full_scan(self):
        # active, inactive, unknown and NaN rates, in and out of the bounds
        rng = random.Random(6)
        for _ in range(500):
            sessions = []
            for k in range(rng.randint(0, 6)):
                a = rng.randint(-1, 6)
                d = a + rng.randint(-1, 5)
                sessions.append(ChargingSession(f"s{k}", a, d, rng.uniform(0.1, 3.0),
                                                rng.choice([0.5, 1.0, 2.0])))
            inst = Instance(sessions, ConstantPower(rng.uniform(0.0, 1.5)),
                            rng.randint(0, 8))
            t = rng.randint(0, inst.horizon + 1)
            state = SimState(t, {s.id: rng.uniform(0.0, s.energy) for s in sessions})
            ids = [s.id for s in sessions] + ["ghost"]
            rates = {sid: rng.choice([0.0, rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6),
                                      rng.uniform(-0.1, 2.5), math.nan if k == 0 else 0.0])
                     for k, sid in enumerate(rng.sample(ids, rng.randint(0, len(ids))))}
            assert outcome(step, state, rates, inst) == \
                outcome(full_scan_step, state, rates, inst)

    @pytest.mark.parametrize("remaining, rates, power", [
        (math.nan, {"a": 0.5}, 1.5),
        (2.0, {"a": -0.0}, 1.5),
        (2.0, {"a": 1.0 + 1e-9}, 1.5),
        (2.0, {"a": math.nextafter(1.0 + 1e-9, math.inf)}, 1.5),
        (0.5, {"a": 0.5 + 1e-9}, 1.5),
        (0.5, {"a": math.nextafter(0.5 + 1e-9, math.inf)}, 1.5),
        (2.0, {"a": 0.5, "b": 0.0}, 1.5),
        (2.0, {"a": 0.5, "b": 0.25}, 1.5),
        (2.0, {"a": 0.5}, math.nan),
    ], ids=["nan-remaining", "negative-zero-rate", "at-cap-plus-tol", "above-cap-plus-tol",
            "at-remaining-plus-tol", "above-remaining-plus-tol", "inactive-zero",
            "inactive-nonzero", "nan-power"])
    def test_kernel_edge_cases_as_full_scan(self, remaining, rates, power):
        # cap + tol is what the check computes; "above" is the next float after it
        inst = Instance((ChargingSession("a", 0, 3, 2.0, 1.0),
                         ChargingSession("b", 1, 3, 1.0, 0.5)), StepwisePower([power, 1.5, 1.5]))
        state = SimState(0, {"a": remaining, "b": 1.0})
        expected = outcome(full_scan_step, state, rates, inst)
        assert outcome(step, state, rates, inst) == expected
        assert state.remaining == {"a": remaining, "b": 1.0}  # step is pure


def outcome(step_fn, state, rates, instance):
    try:
        return repr(step_fn(state, rates, instance))
    except ContractError as exc:
        return f"ContractError: {exc}"


class TestSchedule:
    def sample(self):
        return Schedule(3, {"a": (1.0, 0.0, 0.5), "b": (0.0, 2.0, 2.0)})

    def test_accessors(self):
        sch = self.sample()
        assert sch.rate("a", 2) == 0.5
        assert slot_total(sch, 1) == 2.0
        assert sch.delivered("b") == 4.0

    def test_total_variation(self):
        assert self.sample().total_variation() == pytest.approx(1.5 + 2.0)

    def test_total_variation_is_a_running_sum_in_row_order(self):
        # terms 1.0, 1e16, 1.0: a compensated sum (sum() from Python 3.12) gives 1e16 + 2
        sch = Schedule(2, {"a": (0.0, 1.0), "b": (0.0, 1e16), "c": (0.0, 1.0)})
        assert math.fsum([1.0, 1e16, 1.0]) != 1e16
        assert sch.total_variation() == (1.0 + 1e16) + 1.0 == 1e16

    def test_switch_count(self):
        assert self.sample().switch_count() == 3

    def test_constant_row_has_no_switches(self):
        sch = Schedule(4, {"a": (1.0, 1.0, 1.0, 1.0)})
        assert sch.total_variation() == 0.0
        assert sch.switch_count() == 0

    @pytest.mark.parametrize("horizon, rates, starts, rows", [
        (0, {"a": ()}, {}, {"a": ()}),
        (1, {"a": ()}, {}, {"a": (0.0,)}),
        (1, {"a": ()}, {"a": 1}, {"a": (0.0,)}),
        (1, {"a": (2.0,)}, {}, {"a": (2.0,)}),
        (2, {"a": ()}, {"a": 1}, {"a": (0.0, 0.0)}),
        (2, {"a": ()}, {"a": 2}, {"a": (0.0, 0.0)}),
        (3, {}, {}, {}),
        (4, {"a": (1.0,)}, {}, {"a": (1.0, 0.0, 0.0, 0.0)}),
        (4, {"a": (0.5, -0.0)}, {"a": 1}, {"a": (0.0, 0.5, -0.0, 0.0)}),
        (4, {"a": (0.25, 1.0)}, {"a": 2}, {"a": (0.0, 0.0, 0.25, 1.0)}),
        (5, {"a": (1.0, 1e-13), "b": (3.0, 1e16, 1.0), "c": ()},
         {"a": 0, "b": 2, "c": 3},
         {"a": (1.0, 1e-13, 0.0, 0.0, 0.0), "b": (0.0, 0.0, 3.0, 1e16, 1.0),
          "c": (0.0,) * 5}),
    ], ids=["horizon-0", "horizon-1-start-0", "horizon-1-at-end", "horizon-1-full",
            "empty-inside", "empty-at-horizon", "no-rows", "short-row-at-0", "inside",
            "touching-horizon", "three-rows"])
    def test_windows_read_as_their_dense_form(self, horizon, rates, starts, rows):
        sch, full = Schedule(horizon, rates, starts), Schedule(horizon, rows)
        assert dense(sch) == full
        for t in range(horizon):
            assert repr(slot_total(sch, t)) == repr(slot_total(full, t))
            for sid in rates:
                assert repr(sch.rate(sid, t)) == repr(full.rate(sid, t))
        for sid in rates:
            assert repr(sch.delivered(sid)) == repr(sum(rows[sid]))
        assert repr((sch.total_variation(), sch.switch_count())) == repr(dense_metrics(full))


    def test_runs_of_equal_rates_read_as_their_dense_form(self):
        # the walk steps over each run of equal rates; ±0.0 join one run, a
        # NaN is a run of its own, a run of one infinity adds NaN inside, and
        # ints join the floats they equal
        rng = random.Random(38)
        pool = [0.0, -0.0, 1e-13, 0.5, 2.0, 2, 0, math.nan, math.inf, -math.inf]
        for _ in range(500):
            horizon = rng.randint(1, 25)
            rates, starts = {}, {}
            for k in range(rng.randint(1, 4)):
                starts[f"s{k}"] = rng.randrange(horizon)
                row = [0.0]  # a float, so that the dense sum starts as the windowed one
                while len(row) < horizon - starts[f"s{k}"] and rng.random() < 0.85:
                    row += [rng.choice(pool)] * rng.randint(1, 4)
                rates[f"s{k}"] = tuple(row[:horizon - starts[f"s{k}"]])
            sch = Schedule(horizon, rates, starts)
            assert repr(sch._metrics()) == repr(dense_metrics(dense(sch))), sch


def min_laxity_to_horizon(instance, schedule):
    """Brute force: every session's laxity at every slot from arrival to the horizon."""
    lowest = math.inf
    for s in instance.sessions:
        rem = s.energy
        for t in range(s.arrival, schedule.horizon + 1):
            lowest = min(lowest, laxity(s, t, max(rem, 0.0)))
            if t < schedule.horizon:
                rem -= schedule.rates[s.id][t]
    return lowest


class TestMinLaxity:
    def test_matches_brute_force_on_nonnegative_schedules(self):
        rng = random.Random(7)
        for _ in range(300):
            horizon = rng.randint(1, 12)
            sessions, rows = [], {}
            for k in range(rng.randint(1, 5)):
                a = rng.randrange(horizon)
                d = rng.randint(a + 1, horizon)
                cap = rng.uniform(0.1, 2.0)
                s = ChargingSession(f"s{k}", a, d, rng.uniform(0.01, cap * (d - a)), cap)
                sessions.append(s)
                # overshooting the demand is allowed: remaining clamps at zero;
                # a nonnegative rate after the departure cannot lower the laxity
                rows[s.id] = tuple(rng.uniform(0.0, cap)
                                   if rng.random() < (0.7 if a <= t < d else 0.2) else 0.0
                                   for t in range(horizon))
            inst = Instance(tuple(sessions), ConstantPower(1.0), rng.randint(horizon, horizon + 3))
            sch = Schedule(inst.horizon, {sid: row + (0.0,) * (inst.horizon - horizon)
                                          for sid, row in rows.items()})
            assert min_laxity(inst, sch) == min_laxity_to_horizon(inst, sch)

    def test_stops_at_the_departure(self):
        # validate_schedule flags the negative rate after the departure as
        # rate-outside-window; it no longer lowers the laxity to -2
        inst = Instance((ChargingSession("a", 0, 2, 2.0, 1.0),), ConstantPower(1.0), 4)
        sch = Schedule(4, {"a": (1.0, 0.0, -1.0, 0.0)})
        assert min_laxity_to_horizon(inst, sch) == -2.0
        assert min_laxity(inst, sch) == -1.0
