import math
import random
import time

import pytest

from evcs.corpus import read_instance
from evcs.dynamics import Schedule, min_laxity
from evcs.feasibility import (DEMAND_TOL, SINK, SOURCE, _build_network,
                              is_offline_feasible, min_power_capacity,
                              offline_feasible, validate_schedule)
from evcs.model import (ChargingSession, ConstantPower, ContractError, Instance,
                        StepwisePower)

from flow_oracle import slot_min_power_capacity, slot_offline_feasible
from grid_oracle import grid_feasible, random_grid_instance
from sim_oracle import assert_dense_metrics, dense, full_scan_validate_schedule
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
        assert dense(sch).rates["a"] == pytest.approx((1.0, 0.5))
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
        assert ok and dense(sch).rates == {"a": (0.0, 0.0)}
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
            g, _, _ = _build_network(inst, power)
            demand = sum(s.energy for s in inst.sessions)
            return demand - g.max_flow(SOURCE, SINK) > 1e-12 * demand

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


def random_oracle_instance(rng: random.Random):
    """An unvalidated instance whose event points often coincide.

    Arrivals may be negative, departures may pass the horizon, and a few
    sojourns are empty.  Power is constant, or stepwise in runs of equal
    values with zero slots, sometimes longer than the horizon.
    """
    horizon = rng.randint(0, 14)
    shared = [rng.randint(-3, horizon + 3) for _ in range(3)]

    def point():
        return rng.choice(shared) if rng.random() < 0.6 else rng.randint(-3, horizon + 3)

    sessions = []
    for k in range(rng.randint(0, 6)):
        a, d = sorted((point(), point()))
        if rng.random() < 0.05:
            a, d = d, a
        r_bar = rng.choice([1.0, 2.0, rng.uniform(0.1, 3.0)])
        slots = max(min(d, horizon) - max(a, 0), 0)
        energy = r_bar * slots * rng.choice([1.0, 0.0, rng.random(), rng.random()])
        sessions.append(ChargingSession(f"s{k}", a, d, energy, r_bar))
    if rng.random() < 0.5:
        power = ConstantPower(rng.uniform(0.5, 6.0))
    else:
        values = []
        while len(values) < horizon + rng.choice([0, 0, 0, 2]):
            level = rng.choice([0.0, 1.0, rng.uniform(0.1, 6.0)])
            values += [level] * rng.randint(1, 4)
        power = StepwisePower(values[:horizon + 2])
    return Instance(tuple(sessions), power, horizon)


def change_points(instance: Instance) -> int:
    if isinstance(instance.power, ConstantPower):
        return 0
    values = instance.power.values[:instance.horizon]
    return sum(x != y for x, y in zip(values, values[1:]))


class TestIntervalNetworkAgainstSlots:
    """The interval network against the slot-level one in `flow_oracle`."""

    def assert_same_verdict(self, inst, power_override=None, witness_checked=True):
        """Same verdict as the slot network; the witness must pass validation.

        At the smallest feasible power the flow may miss the demand by up to
        DEMAND_TOL, which `validate_schedule` checks per session, so a caller
        there can leave the witness unchecked.
        """
        ok, witness = offline_feasible(inst, power_override)
        want = slot_offline_feasible(inst, power_override)[0]
        assert ok == want == is_offline_feasible(inst, power_override), (inst, power_override)
        if ok and witness_checked:
            power = inst.power if power_override is None else ConstantPower(power_override)
            verdict = validate_schedule(Instance(inst.sessions, power, inst.horizon), witness)
            assert verdict.feasible, (inst, power_override, verdict.violations)
        return ok

    def test_same_verdicts_and_min_power_on_random_instances(self):
        rng = random.Random(808)
        seen = {"stepwise": 0, "feasible": 0, "infeasible": 0, "unsatisfiable": 0,
                "infeasible at 0.999 P*": 0, "tight stepwise": 0}
        for _ in range(1000):
            inst = random_oracle_instance(rng)
            seen[("feasible" if self.assert_same_verdict(inst) else "infeasible")] += 1
            try:
                want = slot_min_power_capacity(inst)
            except ContractError:
                seen["unsatisfiable"] += 1
                with pytest.raises(ContractError):
                    min_power_capacity(inst)
                continue
            got = min_power_capacity(inst)
            assert abs(got - want) <= 1e-12 * want, (inst, got, want)
            # under DEMAND_TOL the flow may fall short even at P*, and some
            # demand below 1 passes even at 0.999 P*; the verdicts must agree
            assert self.assert_same_verdict(inst, want, witness_checked=False)
            assert self.assert_same_verdict(inst, want * 1.001)
            seen["infeasible at 0.999 P*"] += not self.assert_same_verdict(
                inst, want * 0.999, witness_checked=False)
            if isinstance(inst.power, StepwisePower):
                seen["stepwise"] += 1
                seen["tight stepwise"] += self.check_tight_profile(inst)
        assert min(seen.values()) >= 50, seen

    def check_tight_profile(self, inst):
        """Verdicts near the smallest scale of a stepwise profile that is feasible."""
        def scaled(c):
            return Instance(inst.sessions, inst.power.scaled(c), inst.horizon)

        hi = 1.0
        while not slot_offline_feasible(scaled(hi))[0]:
            if hi > 100.0:
                return False  # the zero slots leave some demand no power
            hi *= 4.0
        lo = 0.0
        while hi - lo > 1e-4 * hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if slot_offline_feasible(scaled(mid))[0] else (mid, hi)
        if lo == 0.0:
            return False
        assert self.assert_same_verdict(scaled(hi), witness_checked=False)
        assert self.assert_same_verdict(scaled(hi * 1.001))
        self.assert_same_verdict(scaled(hi * 0.999), witness_checked=False)
        return True

    def test_stored_min_power_on_shipped_corpora(self, reference_corpus, spaced_corpus):
        for inst in reference_corpus + spaced_corpus:
            want = slot_min_power_capacity(Instance(inst.sessions, ConstantPower(0.0)))
            assert abs(inst.power.power - want) <= 1e-12 * want

    @pytest.mark.parametrize("horizon", [10**2, 10**6])
    def test_node_count_does_not_grow_with_the_horizon(self, horizon):
        rng = random.Random(horizon)
        for _ in range(10):
            sessions = []
            for k in range(rng.randint(0, 30)):
                a = rng.randint(-5, horizon + 5)
                sessions.append(ChargingSession(f"s{k}", a, a + rng.randint(0, horizon // 3 + 2),
                                                1.0, 1.0))
            if rng.random() < 0.5:
                power = ConstantPower(2.0)
            else:
                cuts = sorted(rng.sample(range(horizon), 10)) + [horizon]
                values = [0.0] * cuts[0]
                for t, end in zip(cuts, cuts[1:]):
                    values += [rng.choice([0.0, 1.0, 3.0])] * (end - t)
                power = StepwisePower(values)
            inst = Instance(tuple(sessions), power, horizon)
            n = len(sessions)
            g, _, sink_arcs = _build_network(inst)
            assert g.n <= 2 + n + 2 * n + 1 + change_points(inst)
            assert len(sink_arcs) == g.n - 2 - n

    def test_one_session_listed_twice(self):
        s = ChargingSession("a", 0, 2, 1.5, 1.0)
        for p in (1.4, 1.5, 1.6):
            inst = Instance((s, s), ConstantPower(p))
            assert is_offline_feasible(inst) == slot_offline_feasible(inst)[0] == (p >= 1.5)
        assert min_power_capacity(inst) == slot_min_power_capacity(inst) == 1.5

    def test_short_stepwise_profile_names_the_first_uncovered_slot(self):
        inst = Instance((ChargingSession("a", 0, 4, 1.0, 1.0),), StepwisePower([1.0, 1.0]))
        for call in (offline_feasible, is_offline_feasible, min_power_capacity):
            with pytest.raises(ContractError, match="slot 2 of horizon 4"):
                call(inst)

    def test_huge_horizon_costs_no_slot_work(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),), ConstantPower(1.0), 10**10)
        g, _, sink_arcs = _build_network(inst)
        assert g.n == 2 + 1 + 1 and [(a, b) for a, b, _ in sink_arcs] == [(0, 2)]
        assert is_offline_feasible(inst)
        assert min_power_capacity(inst) == 0.5

    def test_witness_spreads_each_interval_evenly(self):
        # intervals [0, 2), [2, 4) and [4, 6)
        inst = Instance((ChargingSession("a", 0, 6, 3.0, 1.0),
                         ChargingSession("b", 2, 4, 1.0, 1.0)), ConstantPower(1.0))
        ok, witness = offline_feasible(inst)
        assert ok
        assert witness.starts == {"a": 0, "b": 2} and len(witness.rates["b"]) == 2
        a, b = dense(witness).rates["a"], dense(witness).rates["b"]
        assert a[0] == a[1] and a[2] == a[3] and a[4] == a[5]
        assert b[2] == b[3] and b[:2] == b[4:] == (0.0, 0.0)


class TestValidateSchedule:
    def test_good_schedule(self, instance_ia):
        sch = Schedule(2, {"EV1": (0.25, 0.5), "EV2": (0.75, 0.5)})
        verdict = validate_schedule(instance_ia, sch)
        assert verdict.feasible
        assert verdict.unmet_energy == {"EV1": 0.0, "EV2": 0.0}
        # the trace ends with both sessions finished exactly at departure
        assert min_laxity(instance_ia, sch) == pytest.approx(0.0)

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

    def test_huge_declared_horizon_is_checked_quickly(self, tmp_path):
        # an idle stretch between the two sessions, then an idle tail of 10**10 slots
        verdicts = []
        for horizon in (12, 10**10):
            path = tmp_path / f"h{horizon}.evcs"
            path.write_text(f"evcs-v1\nhorizon {horizon}\npower constant 1\n"
                            f"a 0 2 1 1\nb 5 9 2 1\n")
            inst = read_instance(path)
            schedules = (simulate(inst, "sllf")[0],
                         Schedule(horizon, {"a": (1.0, 1.5), "b": (0.5,) * 4}, {"b": 5}))
            start = time.perf_counter()
            verdicts.append([validate_schedule(inst, sch) for sch in schedules])
            assert time.perf_counter() - start < 1.0
            if horizon == 12:
                assert repr(verdicts[0]) == repr([full_scan_validate_schedule(inst, sch)
                                                  for sch in schedules])
        assert repr(verdicts[0]) == repr(verdicts[1])
        run, over = verdicts[1]
        assert run.feasible
        assert [(v.code, v.subject) for v in over.violations] == [
            ("rate-bound", "a"), ("power-bound", "slot 1"), ("demand-exceeded", "a")]

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
    under or over the tolerance, or NaN.  Ids repeat now and then, sojourns
    may reach past either end of the horizon, and power may be stepwise.
    About half the rows are windows: the sojourn clipped to the horizon, a
    part of it, more than it, a stretch beside it, an empty one, or one that
    touches slot 0 or the horizon.
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

    def window(lo, hi):
        """A window near the sojourn [lo, hi), already clipped to the horizon."""
        cut = rng.randint(0, horizon)
        return rng.choice([
            (lo, hi), (0, horizon), (0, cut), (cut, horizon), (cut, cut),
            (rng.randint(lo, max(lo, hi)), rng.randint(lo, max(lo, hi))),
            (rng.randint(0, lo), rng.randint(max(lo, hi), horizon)),
            (rng.randint(0, lo), lo), (max(lo, hi), rng.randint(max(lo, hi), horizon)),
        ])

    rates, starts = {}, {}
    for s in sessions:
        if s.id in rates:
            continue
        group = [s2 for s2 in sessions if s2.id == s.id]
        start, end = 0, horizon
        if rng.random() < 0.5:
            clip = [(min(max(w.arrival, 0), horizon), min(max(w.departure, 0), horizon))
                    for w in group]
            start, end = window(min(lo for lo, _ in clip), max(hi for _, hi in clip))
            start, end = min(start, end), max(start, end)
            starts[s.id] = start
        rates[s.id] = tuple(
            inside(s.max_rate) if any(w.arrival <= t < w.departure for w in group)
            else outside()
            for t in range(start, end))
    keys = list(rates)
    rng.shuffle(keys)
    return inst, Schedule(horizon, {sid: rates[sid] for sid in keys}, starts)


def window_kinds(inst, sch):
    """How each window of the schedule lies against its clipped sojourn."""
    kinds = set()
    for sid, start in sch.starts.items():
        end = start + len(sch.rates[sid])
        clip = [(min(max(s.arrival, 0), inst.horizon), min(max(s.departure, 0), inst.horizon))
                for s in inst.sessions if s.id == sid]
        lo, hi = min(a for a, _ in clip), max(d for _, d in clip)
        if start == end:
            kinds.add("empty")
        elif end <= lo or start >= hi:
            kinds.add("disjoint")
        elif (start, end) != (lo, hi):
            kinds.add("shorter" if lo <= start and end <= hi else "longer")
        if start == 0:
            kinds.add("at-0")
        if end == inst.horizon:
            kinds.add("at-horizon")
    return kinds


class TestValidateAgainstFullScan:
    def test_same_verdicts_on_random_schedules(self):
        rng = random.Random(707)
        codes, kinds = set(), set()
        for _ in range(1500):
            inst, sch = random_schedule_case(rng)
            verdict = validate_schedule(inst, sch)
            expected = full_scan_validate_schedule(inst, sch)
            assert repr(verdict) == repr(expected)
            assert_dense_metrics(inst, sch)
            if "nan" not in repr(expected):
                assert verdict == expected
            codes.update(v.code for v in expected.violations)
            kinds |= window_kinds(inst, sch)
        assert codes == {"rate-bound", "rate-outside-window", "power-bound",
                         "demand-unmet", "demand-exceeded"}
        assert kinds == {"empty", "disjoint", "shorter", "longer", "at-0", "at-horizon"}

    def test_same_verdicts_on_simulated_runs(self, reference_corpus, spaced_corpus):
        for inst in reference_corpus[::30] + spaced_corpus[::30]:
            for policy in ("sllf", "edf", "olp"):
                schedule, _ = simulate(inst, policy)
                assert validate_schedule(inst, schedule) == \
                    full_scan_validate_schedule(inst, schedule)
                assert_dense_metrics(inst, schedule)

    def test_row_length_must_match_horizon(self, instance_ia):
        # a window must lie inside [0, horizon); a short row at 0 ends in zeros
        for row, start in [((0.5, 0.25, 0.0), 0), ((0.75,), -1), ((0.75,), 2), ((0.5, 0.5), 1)]:
            sch = Schedule(2, {"EV1": row, "EV2": (0.75, 0.5)}, {"EV1": start})
            for check in (validate_schedule, full_scan_validate_schedule):
                with pytest.raises(ContractError, match="dimensions"):
                    check(instance_ia, sch)
        short_row = Schedule(2, {"EV1": (0.75,), "EV2": (0.75, 0.5)})
        short = validate_schedule(instance_ia, short_row)
        padded = Schedule(2, {"EV1": (0.75, 0.0), "EV2": (0.75, 0.5)})
        assert repr(short) == repr(validate_schedule(instance_ia, padded))
        assert repr((short_row._metrics(), min_laxity(instance_ia, short_row))) == \
            repr((padded._metrics(), min_laxity(instance_ia, padded)))
        assert not short.feasible and {v.code for v in short.violations} == {"power-bound"}
