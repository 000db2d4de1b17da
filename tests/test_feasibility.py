import math
import random

import pytest

from evcs.dynamics import Schedule
from evcs.feasibility import (DEMAND_TOL, _build_network, min_power_capacity,
                              offline_feasible, validate_schedule)
from evcs.model import (ChargingSession, ConstantPower, ContractError, Instance,
                        StepwisePower)

from grid_oracle import grid_feasible, random_grid_instance
from sim_oracle import full_scan_validate_schedule
from evcs.simulator import simulate


def single_ev(energy=1.0, r_bar=1.0, d=2, power=1.0):
    return Instance((ChargingSession("a", 0, d, energy, r_bar),), ConstantPower(power))


class TestOfflineFeasible:
    def test_trivially_feasible(self):
        ok, sch = offline_feasible(single_ev())
        assert ok
        assert sch.delivered("a") == pytest.approx(1.0)

    def test_witness_schedule_is_sound(self, instance_ia):
        ok, sch = offline_feasible(instance_ia)
        assert ok
        verdict = validate_schedule(instance_ia, sch)
        assert verdict.feasible, verdict.violations

    def test_infeasible_when_power_too_small(self, instance_ia):
        assert not offline_feasible(instance_ia, power_override=0.9)[0]

    def test_stepwise_power(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.5, 1.0),),
                        StepwisePower([1.0, 0.5]))
        ok, sch = offline_feasible(inst)
        assert ok
        assert sch.rates["a"] == pytest.approx((1.0, 0.5))
        tight = Instance((ChargingSession("a", 0, 2, 1.6, 1.0),),
                         StepwisePower([1.0, 0.5]))
        assert not offline_feasible(tight)[0]

    def test_window_respected(self):
        # plenty of power but the window is too short for the rate cap
        inst = Instance((ChargingSession("a", 1, 2, 1.5, 1.0),), ConstantPower(10.0))
        assert not offline_feasible(inst)[0]

    def test_empty_instance(self):
        ok, sch = offline_feasible(Instance((), ConstantPower(1.0)))
        assert ok and sch.rates == {}

    def test_zero_demand_witness_covers_every_session(self):
        inst = single_ev(energy=0.0)
        ok, sch = offline_feasible(inst)
        assert ok and sch.rates == {"a": (0.0, 0.0)}
        assert validate_schedule(inst, sch).feasible

    def test_monotone_in_power(self, reference_corpus):
        rng = random.Random(3)
        for inst in rng.sample(reference_corpus, 20):
            p_star = min_power_capacity(inst)
            assert offline_feasible(inst, power_override=p_star * 1.01)[0]
            if p_star > 1e-6:
                assert not offline_feasible(inst, power_override=p_star * 0.9)[0]

    def test_agrees_with_grid_oracle(self):
        rng = random.Random(20240826)
        checked = disagreement_free = 0
        for _ in range(200):
            inst, units = random_grid_instance(rng)
            if grid_feasible(inst, units):
                checked += 1
                assert offline_feasible(inst)[0], (inst, units)
            disagreement_free += 1
        assert checked >= 40  # the sampler must exercise the feasible side


class TestMinPowerCapacity:
    def test_two_identical_evs(self):
        inst = Instance((ChargingSession("a", 0, 2, 2.0, 2.0),
                         ChargingSession("b", 0, 2, 2.0, 2.0)), ConstantPower(4.0))
        assert min_power_capacity(inst) == pytest.approx(2.0, abs=1e-12)

    def test_single_ev_spread(self):
        assert min_power_capacity(single_ev()) == pytest.approx(0.5, abs=1e-12)

    def test_canonical_instance(self, instance_ia):
        assert min_power_capacity(instance_ia) == pytest.approx(1.0, abs=1e-12)

    def test_empty_instance(self):
        assert min_power_capacity(Instance((), ConstantPower(1.0))) == 0.0

    def test_unsatisfiable_session_rejected(self):
        inst = single_ev(energy=5.0)
        with pytest.raises(ContractError):
            min_power_capacity(inst)

    @pytest.mark.parametrize("energy, r_bar", [(math.nan, 1.0), (1.0, math.inf),
                                               (1.0, math.nan), (math.inf, math.inf)])
    def test_non_finite_session_rejected(self, energy, r_bar):
        with pytest.raises(ContractError):
            min_power_capacity(single_ev(energy=energy, r_bar=r_bar))

    def test_window_cut_off_by_slot_zero_rejected(self):
        # satisfiable over its sojourn, but only slot 0 lies inside [0, horizon)
        inst = Instance((ChargingSession("a", -2, 1, 2.0, 1.0),), ConstantPower(5.0))
        with pytest.raises(ContractError):
            min_power_capacity(inst)

    def test_exact_on_reference_sessions(self, reference_corpus):
        # "short" means the max flow misses the demand by more than float noise,
        # which is stricter than the oracle's DEMAND_TOL slack
        def short(inst, power):
            g, source, sink, _, _ = _build_network(inst, power)
            demand = sum(s.energy for s in inst.sessions)
            return demand - g.max_flow(source, sink) > 1e-12 * demand

        rng = random.Random(5)
        for inst in rng.sample(reference_corpus, 30):
            p_star = min_power_capacity(inst)
            assert offline_feasible(inst, power_override=p_star)[0]
            assert not short(inst, p_star)
            assert short(inst, p_star * (1 - 1e-6))

    def test_result_is_feasible_and_near_tight(self, instance_ia):
        p_star = min_power_capacity(instance_ia)
        assert offline_feasible(instance_ia, power_override=p_star * (1 + 1e-4))[0]
        assert not offline_feasible(instance_ia, power_override=p_star * (1 - 1e-3))[0]

    def test_energy_density_lower_bound(self):
        # over any interval, P* must cover the demand of windows nested in it
        rng = random.Random(11)
        for _ in range(50):
            inst, _units = random_grid_instance(rng)
            p_star = min_power_capacity(inst)
            horizon = inst.horizon
            for t1 in range(horizon):
                for t2 in range(t1 + 1, horizon + 1):
                    nested = sum(s.energy for s in inst.sessions
                                 if t1 <= s.arrival and s.departure <= t2)
                    assert p_star >= nested / (t2 - t1) - 1e-5 * max(1.0, nested)


class TestValidateSchedule:
    def test_good_schedule(self, instance_ia):
        sch = Schedule(2, {"EV1": (0.25, 0.5), "EV2": (0.75, 0.5)})
        verdict = validate_schedule(instance_ia, sch)
        assert verdict.feasible
        assert verdict.unmet_energy == {"EV1": 0.0, "EV2": 0.0}
        # the trace ends with both sessions finished exactly at departure
        assert verdict.min_laxity == pytest.approx(0.0)

    def test_demand_unmet(self, instance_ia):
        sch = Schedule(2, {"EV1": (0.25, 0.5), "EV2": (0.75, 0.0)})
        verdict = validate_schedule(instance_ia, sch)
        assert not verdict.feasible
        assert {v.code for v in verdict.violations} == {"demand-unmet"}
        assert verdict.unmet_energy["EV2"] == pytest.approx(0.5)

    def test_power_bound(self, instance_ia):
        sch = Schedule(2, {"EV1": (0.75, 0.0), "EV2": (1.0, 0.25)})
        codes = {v.code for v in validate_schedule(instance_ia, sch).violations}
        assert "power-bound" in codes

    def test_rate_bound_and_window(self):
        inst = Instance((ChargingSession("a", 1, 2, 0.5, 1.0),), ConstantPower(5.0),
                        horizon=3)
        sch = Schedule(3, {"a": (0.25, 1.5, 0.0)})
        codes = {v.code for v in validate_schedule(inst, sch).violations}
        assert codes == {"rate-outside-window", "rate-bound", "demand-exceeded"}

    def test_dimension_mismatch_rejected(self, instance_ia):
        with pytest.raises(ContractError):
            validate_schedule(instance_ia, Schedule(2, {"EV1": (0.0, 0.0)}))

    def test_tolerance_absorbs_float_noise(self, instance_ia):
        sch = Schedule(2, {"EV1": (0.25, 0.5 + 1e-12), "EV2": (0.75, 0.5)})
        assert validate_schedule(instance_ia, sch).feasible

    def test_demand_tol_is_relative(self):
        inst = single_ev(energy=1000.0, r_bar=600.0, d=2, power=600.0)
        short = 1000.0 * DEMAND_TOL * 0.5
        sch = Schedule(2, {"a": (600.0, 400.0 - short)})
        assert validate_schedule(inst, sch).feasible


def random_schedule_case(rng: random.Random):
    """A random instance and a schedule of the right shape that may break any bound.

    Rates inside a sojourn may sit just over the peak rate, go negative or
    be NaN; outside it they are mostly exact zeros, sometimes -0.0, a value
    under or over the tolerance, or NaN.  Ids repeat now and then, windows
    may reach past either end of the horizon, and power may be stepwise.
    """
    horizon = rng.randint(0, 12)
    sessions = []
    for k in range(rng.randint(0, 6)):
        a = rng.randint(-2, horizon + 1)
        d = rng.randint(a - 1, horizon + 2)
        r_bar = rng.uniform(0.1, 3.0)
        sid = f"s{rng.randint(0, k)}" if rng.random() < 0.15 else f"s{k}"
        sessions.append(ChargingSession(sid, a, d, rng.uniform(0.0, r_bar * max(d - a, 1)), r_bar))
    if rng.random() < 0.5:
        power = StepwisePower([rng.choice([rng.uniform(0.0, 6.0), -1.0, 0.0])
                               for _ in range(horizon)])
    else:
        power = ConstantPower(rng.uniform(0.0, 8.0))
    inst = Instance(tuple(sessions), power, horizon)

    def inside(r_bar):
        return rng.choice([
            rng.uniform(0.0, r_bar), rng.uniform(0.0, r_bar), 0.0, -0.0, r_bar,
            r_bar * (1 + 1e-8), r_bar + 1e-10, -1e-10, -1e-3, math.nan,
        ])

    def outside():
        if rng.random() < 0.8:
            return 0.0
        return rng.choice([-0.0, 1e-15, -1e-15, 1e-6, -0.5, math.nan])

    rates = {}
    for s in sessions:
        if s.id in rates:
            continue
        window = [s2 for s2 in sessions if s2.id == s.id]
        rates[s.id] = tuple(
            inside(s.max_rate) if any(w.arrival <= t < w.departure for w in window)
            else outside()
            for t in range(horizon))
    keys = list(rates)
    rng.shuffle(keys)
    return inst, Schedule(horizon, {sid: rates[sid] for sid in keys})


class TestValidateAgainstFullScan:
    def test_same_verdicts_on_random_schedules(self):
        rng = random.Random(707)
        codes = set()
        for _ in range(1500):
            inst, sch = random_schedule_case(rng)
            verdict = validate_schedule(inst, sch)
            expected = full_scan_validate_schedule(inst, sch)
            assert repr(verdict) == repr(expected)
            if "nan" not in repr(expected):
                assert verdict == expected
            codes.update(v.code for v in expected.violations)
        assert codes == {"rate-bound", "rate-outside-window", "power-bound",
                         "demand-unmet", "demand-exceeded"}

    def test_same_verdicts_on_simulated_runs(self, reference_corpus, spaced_corpus):
        for inst in reference_corpus[::30] + spaced_corpus[::30]:
            for policy in ("sllf", "edf", "olp"):
                schedule, _ = simulate(inst, policy)
                assert validate_schedule(inst, schedule) == \
                    full_scan_validate_schedule(inst, schedule)

    def test_row_length_must_match_horizon(self, instance_ia):
        for row in [(0.75,), (0.5, 0.25, 0.0)]:
            sch = Schedule(2, {"EV1": row, "EV2": (0.75, 0.5)})
            with pytest.raises(ContractError, match="dimensions"):
                validate_schedule(instance_ia, sch)
