import collections
import dataclasses
import math
import random
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from evcs import dynamics, schedulers, simulator
from evcs.dynamics import SimState, initial_state, min_laxity
from evcs.feasibility import DEMAND_TOL, is_offline_feasible, offline_feasible, validate_schedule
from evcs.model import (ChargingSession, ConstantPower, ContractError, Instance, StepwisePower,
                        validate)
from evcs.schedulers import POLICIES, RateDecision
from evcs.simulator import (PolicyContractError, binned_success_rates,
                            instance_metrics, run_feasibility, separation_witness, simulate,
                            success_rate)

from policy_oracle import REFERENCE_POLICIES
from policy_oracle import olp_rates as frozen_olp_rates
from sim_oracle import (CAPS_FIRST, assert_dense_metrics, busy_slot_run, dense, done_level,
                        full_scan_chargeable, full_scan_charge, full_scan_simulate)


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

    def test_contract_breach_detected(self, monkeypatch, instance_ia):
        # rates by position in the span's cells, EV1's first; a rate for an
        # inactive session is `step`'s case (test_dynamics)
        bad_rates = (
            [2.0],         # above the rate cap
            [-0.5],        # negative rate
            [0.6, 0.6],    # total above the power limit
            [math.nan],
        )
        for rates in bad_rates:
            monkeypatch.setattr(simulator, "_kernel_rates",
                                lambda kernel, span, *args, rates=rates:
                                (span, rates, False, None, None))
            with pytest.raises(PolicyContractError):
                simulate(instance_ia, "sllf")

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

    @pytest.mark.parametrize("name", ["sllf", "llf", "olp"])
    def test_a_zero_peak_rate_at_a_contended_slot_is_a_contract_error(self, name):
        # a's laxity divides by its peak rate; OLP reaches it through the sLLF fallback
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 0.0),
                         ChargingSession("b", 0, 2, 1.0, 1.0)), ConstantPower(0.5))
        message = "^session a has peak rate 0 at slot 0: its laxity is undefined$"
        with pytest.raises(ContractError, match=message):
            simulate(inst, name)
        with pytest.raises(ContractError, match=message):
            run_feasibility([inst], name)
        for other in ("edf", "es", "rep"):
            assert not simulate(inst, other)[1].feasible
            assert run_feasibility([inst], other) == [False]

    def test_short_stepwise_power_is_the_oracles_contract_error(self):
        # the run and the oracle read one event index, which checks the profile
        inst = Instance((ChargingSession("a", 0, 3, 1.0, 1.0),), StepwisePower([1.0]), 3)
        message = "^stepwise power has no value for slot 1 of horizon 3$"
        with pytest.raises(ContractError, match=message):
            is_offline_feasible(inst)
        for name in POLICIES:
            with pytest.raises(ContractError, match=message):
                simulate(inst, name)


def random_unvalidated_instance(rng: random.Random) -> Instance:
    """A small instance `validate` may reject: negative arrivals, empty
    sojourns, departures past the horizon, zero energies, repeated ids and
    stepwise power; about one in four holds an id whose first session departs
    short and whose later session can finish the demand."""
    horizon = rng.randint(1, 10)
    sessions = []
    for k in range(rng.randint(1, 6)):
        arrival = rng.randint(-3, horizon)
        departure = arrival + rng.randint(-1, 6)
        max_rate = rng.choice([0.5, 1.0, 2.0])
        reach = max_rate * (min(departure, horizon) - max(arrival, 0))
        energy = 0.0 if rng.random() < 0.15 or reach <= 0 and rng.random() < 0.7 else \
            rng.uniform(0.1, max(reach, 1.0))
        sid = f"s{rng.randrange(k)}" if k and rng.random() < 0.2 else f"s{k}"
        sessions.append(ChargingSession(sid, arrival, departure, energy, max_rate))
    if rng.random() < 0.25:
        first = rng.randint(0, horizon - 1)
        second = rng.randint(first + 1, horizon + 2)
        energy = rng.uniform(1.5, 3.0) * (second - first)  # beyond the first window's reach
        sessions += [ChargingSession("d", first - 1, first + 1, energy, 1.0),
                     ChargingSession("d", second, second + 3, energy, 2.0 * energy)]
    rng.shuffle(sessions)
    if rng.random() < 0.5:
        power = ConstantPower(rng.uniform(0.0, 4.0))
    else:
        power = StepwisePower([rng.choice([0.0, 0.5, 1.0, 2.5, 4.0]) for _ in range(horizon)])
    return Instance(sessions, power, horizon)


def misses_then_finishes(instance, schedule, verdict) -> bool:
    """Some id's earlier session departs short of its demand, and the run still
    ends feasible: a seal at each session's own departure would be wrong."""
    if not verdict.feasible:
        return False
    for s in instance.sessions:
        if any(o.id == s.id and o.departure > s.departure for o in instance.sessions):
            end = min(max(s.departure, 0), instance.horizon)
            delivered = sum(schedule.rate(s.id, t) for t in range(end))
            if s.energy - delivered > DEMAND_TOL * s.energy:
                return True
    return False


class TestIndex:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(ChargingSession, st.sampled_from(["a", "b", "c", "d"]),
                              st.integers(-4, 12), st.integers(-4, 12), st.just(1.0),
                              st.just(1.0)), max_size=8),
           st.integers(-2, 14))
    def test_windows_are_clipped_sojourns_joined_per_id(self, sessions, horizon):
        # `_index`'s docstring, computed with `min` and `max` per session:
        # repeated ids, negative arrivals, empty sojourns and negative horizons
        inst = Instance(sessions, ConstantPower(1.0), horizon)
        ids = list(dict.fromkeys(s.id for s in sessions))
        keys = [ids.index(s.id) for s in sessions]
        clipped = [(min(max(s.arrival, 0), horizon), min(max(s.departure, 0), horizon))
                   for s in sessions]
        starts = [min(lo for (lo, _), k in zip(clipped, keys) if k == n) for n in range(len(ids))]
        ends = [max(hi for (_, hi), k in zip(clipped, keys) if k == n) for n in range(len(ids))]
        assert repr(simulator._index(inst)) == repr((ids, keys, starts, ends))


class TestRunFeasibility:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_verdicts_of_simulate_on_corpora(self, reference_corpus, spaced_corpus, policy):
        instances = reference_corpus + spaced_corpus
        assert run_feasibility(instances, policy) == \
            [simulate(inst, policy)[1].feasible for inst in instances]

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_verdicts_of_simulate_on_unvalidated_instances(self, policy):
        rng = random.Random(20)
        instances = [random_unvalidated_instance(rng) for _ in range(1000)]
        compared, raised, covered = 0, 0, set()
        for inst in instances:
            try:
                schedule, verdict = simulate(inst, policy)
            except PolicyContractError:
                raised += 1
                continue
            assert run_feasibility([inst], policy) == [verdict.feasible]
            compared += 1
            sessions = inst.sessions
            covered.update(name for name, hit in (
                ("negative arrival", any(s.arrival < 0 for s in sessions)),
                ("empty sojourn", any(s.arrival >= s.departure for s in sessions)),
                ("past the horizon", any(s.departure > inst.horizon for s in sessions)),
                ("zero energy", any(s.energy == 0.0 for s in sessions)),
                ("stepwise power", isinstance(inst.power, StepwisePower)),
                ("infeasible", not verdict.feasible),
                ("misses then finishes", misses_then_finishes(inst, schedule, verdict)),
            ) if hit)
        assert compared >= 950, raised
        assert len(covered) == 7, covered

    @pytest.mark.parametrize("sessions, decided, feasible", [
        # "a" misses at its window end 2: slots 2 to 5 of "b" are not decided
        ((ChargingSession("a", 0, 2, 3.0, 1.0), ChargingSession("b", 1, 6, 1.0, 1.0)),
         [0, 1], False),
        # the first "a" departs short, the second finishes it: no stop at 2
        ((ChargingSession("a", 0, 2, 3.0, 1.0), ChargingSession("a", 3, 6, 3.0, 1.0)),
         [0, 1, 3, 4, 5], True),
    ], ids=["miss", "duplicate-id-finishes"])
    def test_stops_at_the_first_missed_window_end(self, monkeypatch, sessions, decided,
                                                  feasible):
        # the slots EDF's kernel decides and those charged in one pass after them
        slots, passes = decided_slots(monkeypatch), one_pass_slots(monkeypatch)
        inst = Instance(sessions, ConstantPower(1.0), 6)

        def charged():
            slots.extend(u for t, b in passes for u in range(t, b))
            passes.clear()
            return sorted(slots)

        assert simulate(inst, "edf")[1].feasible is feasible
        assert charged() == [t for a, b, _ in inst.busy_spans() for t in range(a, b)]
        slots.clear()
        assert run_feasibility([inst], "edf") == [feasible]
        assert charged() == decided

    def test_no_contract_check_after_a_miss(self):
        # "a" misses at slot 1; the NaN power at slot 1 is a contract error
        # only for the run that goes on to decide that slot
        inst = Instance((ChargingSession("a", 0, 1, 2.0, 1.0),
                         ChargingSession("b", 1, 2, 0.5, 1.0)), StepwisePower([1.0, math.nan]))
        assert validate(inst)
        for name in POLICIES:
            with pytest.raises(PolicyContractError, match="at slot 1$"):
                simulate(inst, name)
            assert run_feasibility([inst], name) == [False]


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

    @pytest.mark.parametrize("session, named", [
        (ChargingSession("a", 0, 2, 1.0, 0.0), "session a has peak rate 0"),
        (ChargingSession("a", 2, 2, 1.0, 1.0), "session a has an empty sojourn"),
    ], ids=["zero-peak-rate", "empty-sojourn"])
    def test_instance_metrics_name_an_undefined_session(self, session, named):
        inst = Instance((ChargingSession("b", 0, 4, 1.0, 1.0), session), ConstantPower(1.0))
        with pytest.raises(ContractError, match=f"^{named}: "):
            instance_metrics(inst)

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
    dense, and the windowed metrics are those of the dense schedule; the
    run of the policy's frozen reference has the same outcome."""
    schedule, verdict = simulate(instance, policy)
    assert repr((dense(schedule), verdict)) == repr(full_scan_simulate(instance, policy))
    assert_dense_metrics(instance, schedule)
    assert run_outcome(instance, policy) == frozen_run_outcome(instance, policy)


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

    @pytest.mark.parametrize("energy", [1e-13, 1e-300, 1e-320, 5e-324])
    def test_same_runs_on_demands_under_the_finished_level(self, energy):
        # under 1e-6 a session is done at DEMAND_TOL of its energy, or at 0.0
        # where that rounds to it; the full scan and the frozen references
        # read the same `done_level`, and the instance is feasible
        instance = Instance((ChargingSession("a", 0, 2, energy, 1.0),
                             ChargingSession("b", 0, 3, 2.0, 1.0)), ConstantPower(1.0))
        for policy in sorted(CAPS_FIRST):
            assert full_scan_simulate(instance, policy)[1].feasible, policy
            assert_same_run(instance, policy)


def day_width_instance(seed: int) -> Instance:
    """48 valid sessions whose sojourns of 30-70 slots overlap, 20 or more
    at once over most of the horizon, under a constant power below their
    peak rates' sum there: the width at which a run's per-slot scans, sorts
    and fills carry most of its cost."""
    rng, sessions = random.Random(seed), []
    for k in range(48):
        arrival = rng.randrange(40)
        sojourn = rng.randint(30, 70)
        max_rate = rng.choice([1.0, 2.0, 3.3, 6.6])
        energy = max_rate * sojourn * rng.uniform(0.1, 0.6)
        sessions.append(ChargingSession(f"ev{k:02d}", arrival, arrival + sojourn, energy,
                                        max_rate))
    horizon = max(s.departure for s in sessions)
    return Instance(sessions, ConstantPower(1.5 * sum(s.energy for s in sessions) / horizon))


class TestDayWidth:
    def test_simple_policies_run_as_the_full_scan(self):
        inst = day_width_instance(31)
        assert validate(inst) == []
        widths = [len(positions) for _, _, positions in inst.busy_spans()]
        assert len(inst.sessions) >= 40 and max(widths) >= 20, widths
        widest = max(inst.busy_spans(), key=lambda span: len(span[2]))[2]
        assert sum(inst.sessions[k].max_rate for k in widest) > inst.power.at(0)
        for policy in sorted(CAPS_FIRST):
            assert_same_run(inst, policy)

    def test_simple_policies_run_as_their_frozen_reference(self):
        # the run that calls the reference policy at each busy slot
        inst = day_width_instance(31)
        for name in sorted(CAPS_FIRST):
            schedule, verdict = simulate(inst, name)
            expected = busy_slot_run(inst, REFERENCE_POLICIES[name])
            assert repr((dense(schedule), verdict)) == repr(expected), name


class TestOneDispatchPath:
    """A run decides each slot only through `KERNELS`, by the policy's name:
    what `POLICIES` holds changes no run."""

    def test_runs_call_no_entry_of_policies(self, monkeypatch, reference_corpus, spaced_corpus):
        repeated = Instance((ChargingSession("a", 0, 5, 6.0, 2.0),
                             ChargingSession("a", 3, 8, 6.0, 0.5),
                             ChargingSession("b", 2, 8, 3.0, 1.0)), ConstantPower(2.5), 8)
        instances = reference_corpus[::25] + spaced_corpus[::25] + [repeated,
                                                                    day_width_instance(31)]

        def outcomes(name):
            return (repr([simulate(inst, name) for inst in instances]),
                    repr(run_feasibility(instances, name)))

        expected = {name: outcomes(name) for name in sorted(POLICIES)}

        def stub(state, instance, t):
            raise AssertionError(f"a run called a POLICIES entry at slot {t}")

        for name in expected:
            monkeypatch.setitem(POLICIES, name, stub)
        for name, want in expected.items():
            assert outcomes(name) == want, name

    def test_an_unknown_name_is_decide_s_key_error(self, instance_ia):
        with pytest.raises(KeyError) as expected:
            schedulers.decide("nope", initial_state(instance_ia), instance_ia, 0)
        for run in (lambda: simulate(instance_ia, "nope"),
                    lambda: run_feasibility([instance_ia], "nope")):
            with pytest.raises(KeyError) as raised:
                run()
            assert str(raised.value) == str(expected.value)
            assert "valid: edf, es, llf, olp, rep, sllf" in str(raised.value)


def decided_slots(monkeypatch):
    """The slots at which runs ask a policy's kernel to decide, in order:
    each `_kernel_rates` call, and each `_olp` call that does not follow
    OLP's plan."""
    slots, kernel_rates, olp = [], simulator._kernel_rates, simulator._olp

    def deciding(kernel, span, remaining, p_limit, t, ordered=None):
        slots.append(t)
        return kernel_rates(kernel, span, remaining, p_limit, t, ordered)

    def solving(instance, span, remaining, t, memory):
        decided = olp(instance, span, remaining, t, memory)
        if decided[4] != "followed":
            slots.append(t)
        return decided

    monkeypatch.setattr(simulator, "_kernel_rates", deciding)
    monkeypatch.setattr(simulator, "_olp", solving)
    return slots


def policy_calls(monkeypatch, name, instance, run=simulate):
    """The slots at which `run` asks policy `name`'s kernel to decide (`decided_slots`)."""
    slots = decided_slots(monkeypatch)
    run(instance, name)
    return slots


def expected_calls(instance, name):
    """The busy slots a run asks a policy's kernel to decide, found by
    stepping the full-scan run, which asks the policy at every slot: for a
    `CAPS_FIRST` policy each one but those after a decision at the caps
    (`threshold == inf`) in a span whose ids are unique and whose peak rates
    are all above 0, where a span ends wherever the active sessions or the
    power change; for EDF and ES also but those after a contended decision
    in such a span, as long as each session given a rate above 0 there is
    left at least its peak rate and more than its `done_level`; for OLP
    each one where the run memory holds no plan, or
    the plan misses a chargeable session."""
    policy, sessions = POLICIES[name], instance.sessions
    state = SimState(0, initial_state(instance).remaining, {})
    calls, span, power, skip, repeated = [], None, None, False, None
    for t in range(instance.horizon):
        positions = [k for k, s in enumerate(sessions) if s.arrival <= t < s.departure]
        if positions != span or instance.power.at(t) != power:
            span, power, skip, repeated = positions, instance.power.at(t), False, None
        if name == "olp":
            plan = state.memory.get("olp")
            skip = plan is not None and all(
                id(s) in plan[3] for s in full_scan_chargeable(state, instance, t)[0])
        remaining = state.remaining
        repeats = repeated is not None and all(
            remaining[s.id] >= s.max_rate and remaining[s.id] > done_level(s) for s in repeated)
        decision = policy(state, instance, t)
        if positions and not skip and not repeats:
            calls.append(t)
            active = [sessions[k] for k in positions]
            guarded = (len({s.id for s in active}) == len(active)
                       and all(s.max_rate > 0.0 for s in active))
            skip = name in CAPS_FIRST and decision.threshold == math.inf and guarded
            repeated = None
            if name in ("edf", "es") and decision.threshold != math.inf and guarded:
                repeated = [s for s in active if decision.rates.get(s.id, 0.0) > 0.0]
        state = full_scan_charge(state, decision.rates, instance)[0]
    return calls


class TestUncontendedSlots:
    """After a decision at the caps in a span with unique ids and peak rates
    above 0 the run charges the rest of the span without a policy call, EDF
    and ES are not asked where a contended decision repeats, OLP is not
    asked where its plan holds every chargeable session, and the policy
    decides every other busy slot; every run stays the full scan's."""

    @pytest.mark.parametrize("sessions, power, horizon", [
        # b contends for slots 0-2; a alone fits from slot 3 on
        ((ChargingSession("a", 0, 100, 50.0, 1.0), ChargingSession("b", 0, 3, 3.0, 1.0)),
         ConstantPower(1.5), 100),
        # a alone fits; b's arrival at 3 makes slot 3 contended
        ((ChargingSession("a", 0, 10, 5.0, 1.0), ChargingSession("b", 3, 10, 5.0, 1.0)),
         ConstantPower(1.5), 10),
        # the power drops under a's cap at 3, inside a's sojourn, and rises at 5
        ((ChargingSession("a", 0, 8, 4.0, 1.0),), StepwisePower([2, 2, 2, 0.5, 0.5, 2, 2, 2]),
         8),
        # overlapping sessions of one id, with other peak rates: one remaining energy
        ((ChargingSession("a", 0, 5, 2.0, 2.0), ChargingSession("a", 3, 8, 4.0, 0.5),
          ChargingSession("b", 0, 8, 3.0, 1.0)), ConstantPower(1.5), 8),
        ((ChargingSession("a", 0, 5, 6.0, 2.0), ChargingSession("a", 3, 8, 6.0, 0.5),
          ChargingSession("b", 2, 8, 3.0, 1.0)), ConstantPower(2.5), 8),
        # a is left 3e-13 after slot 1, under FINISHED_EPS of its energy: no longer chargeable
        ((ChargingSession("a", 0, 6, 2.0 + 3e-13, 1.0), ChargingSession("b", 0, 6, 2.0, 1.0)),
         ConstantPower(1.5), 6),
    ], ids=["long-tail", "arrival-contends", "power-drop", "repeated-id",
            "repeated-id-contended", "finished-within-eps"])
    def test_runs_as_the_full_scan(self, monkeypatch, sessions, power, horizon):
        inst = Instance(sessions, power, horizon)
        busy = [t for a, b, _ in inst.busy_spans() for t in range(a, b)]
        for name in sorted(POLICIES):
            assert_same_run(inst, name)
            expected = full_scan_simulate(inst, name)[1].feasible
            assert run_feasibility([inst], name) == [expected], name
            calls = expected_calls(inst, name)
            assert len(calls) < len(busy), name
            assert policy_calls(monkeypatch, name, inst) == calls, name
            monkeypatch.undo()
            decided = policy_calls(monkeypatch, name, inst, lambda i, n: run_feasibility([i], n))
            monkeypatch.undo()
            assert decided == calls[:len(decided)], name

    def test_calls_of_the_sample_runs(self, monkeypatch):
        # sLLF on "long-tail" decides 0-2, where b contends, and 3; a alone is
        # charged at its cap from then on without a call
        inst = Instance((ChargingSession("a", 0, 100, 50.0, 1.0),
                         ChargingSession("b", 0, 3, 3.0, 1.0)), ConstantPower(1.5), 100)
        assert expected_calls(inst, "sllf") == policy_calls(monkeypatch, "sllf", inst) \
            == [0, 1, 2, 3]

    def test_nan_power_after_an_uncontended_slot(self, monkeypatch):
        inst = Instance((ChargingSession("a", 0, 3, 1.0, 1.0),),
                        StepwisePower([2.0, 2.0, math.nan]))
        for name in sorted(CAPS_FIRST):
            with pytest.raises(PolicyContractError, match="at slot 2$") as raised:
                simulate(inst, name)
            with pytest.raises(PolicyContractError) as expected:
                full_scan_simulate(inst, name)
            assert str(raised.value) == str(expected.value)
            with pytest.raises(PolicyContractError, match="at slot 2$"):
                run_feasibility([inst], name)
            # slot 1 is charged in the one pass; the NaN at slot 2 opens a span the policy decides
            slots = decided_slots(monkeypatch)
            with pytest.raises(PolicyContractError, match="at slot 2$"):
                simulate(inst, name)
            assert slots == [0, 2], name
            monkeypatch.undo()

    def test_unvalidated_instances_run_as_the_full_scan(self, monkeypatch):
        """Repeated ids share one remaining energy and one rate; the run and the
        policy test the same sessions against the same dict, so they agree."""
        rng = random.Random(21)
        skipped, repeated = 0, 0
        for _ in range(300):
            inst = random_unvalidated_instance(rng)
            busy = sum(b - a for a, b, _ in inst.busy_spans())
            ids = [s.id for s in inst.sessions]
            for name in sorted(CAPS_FIRST):
                try:
                    expected = full_scan_simulate(inst, name)
                except PolicyContractError as exc:
                    with pytest.raises(PolicyContractError, match=f"^{re.escape(str(exc))}$"):
                        simulate(inst, name)
                    continue
                schedule, verdict = simulate(inst, name)
                assert repr((dense(schedule), verdict)) == repr(expected), name
                assert run_feasibility([inst], name) == [verdict.feasible], name
                calls = policy_calls(monkeypatch, name, inst)
                monkeypatch.undo()
                assert calls == expected_calls(inst, name), name
                saved = busy - len(calls)
                skipped += saved
                repeated += saved > 0 and len(set(ids)) < len(ids)
        assert skipped > 800 and repeated > 100, (skipped, repeated)


def assert_runs_as_full_scan(instance, name):
    """`simulate` (rows and verdict, by `repr`) and `run_feasibility` agree
    with the full scan, or raise its error."""
    try:
        expected = full_scan_simulate(instance, name)
    except ContractError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            simulate(instance, name)
        return
    schedule, verdict = simulate(instance, name)
    assert repr((dense(schedule), verdict)) == repr(expected), name
    assert run_feasibility([instance], name) == [verdict.feasible], name


def random_edge_instance(rng: random.Random) -> Instance:
    """`random_unvalidated_instance` with about half the energies replaced by a
    multiple of the peak rate, such a multiple plus a hair above or below
    `FINISHED_EPS` of the energy, a value below 1, inf or NaN, and about one
    peak rate in ten by 0, a tiny negative or NaN."""
    inst = random_unvalidated_instance(rng)
    sessions = []
    for s in inst.sessions:
        energy, max_rate = s.energy, s.max_rate
        if rng.random() < 0.5:
            whole = rng.randint(1, 4) * max_rate
            energy = rng.choice([whole, whole + 3e-12 * whole, whole + 0.5e-12 * whole,
                                 rng.uniform(0.01, 1.0), math.inf, math.nan])
        if rng.random() < 0.1:
            max_rate = rng.choice([0.0, -1e-12, math.nan])
        sessions.append(dataclasses.replace(s, energy=energy, max_rate=max_rate))
    return Instance(sessions, inst.power, inst.horizon)


class TestNoRemainingEnergyRises:
    """A rate is charged at no less than 0.0, whatever its cap, so no run
    raises a remaining energy: not with a negative peak rate either."""

    def test_a_negative_peak_rate_keeps_the_demand(self):
        # EDF, for one, gives s1 a rate of 0 under its cap of -1e-12
        inst = Instance((ChargingSession("a", 0, 5, 2.0, 1.0),
                         ChargingSession("s1", 0, 5, 1.0, -1e-12)), ConstantPower(0.5))
        for name in sorted(POLICIES):
            assert simulate(inst, name)[1].unmet_energy["s1"] == 1.0, name
            assert_runs_as_full_scan(inst, name)

    def test_unvalidated_instances_never_raise_a_remaining_energy(self, monkeypatch):
        rng = random.Random(39)
        charge, slots = dynamics._charge, collections.Counter()

        def watching(remaining, cells, rates, t, p_limit, rows=None):
            before = list(remaining)
            try:
                charge(remaining, cells, rates, t, p_limit, rows)
            finally:
                assert not any(now > then for now, then in zip(remaining, before)), t
            slots["charged"] += 1
            slots["negative peak rate"] += any(cell[1] < 0.0 for cell in cells)

        monkeypatch.setattr(simulator, "_charge", watching)
        monkeypatch.setattr(dynamics, "_charge", watching)  # `_charge_ids`' charge
        for _ in range(300):
            inst = random_edge_instance(rng)
            initial = initial_state(inst).remaining
            for name in sorted(POLICIES):
                try:
                    verdict = simulate(inst, name)[1]
                except ContractError:
                    continue
                assert not any(verdict.unmet_energy[sid] > e for sid, e in initial.items())
        assert slots["charged"] > 3000 and slots["negative peak rate"] > 50, slots


def one_pass_slots(monkeypatch):
    """The (first, end) slots of each one-pass charge with slots left, as runs make them."""
    passes, charge = [], simulator._charge_at_caps

    def spying(span, remaining, rows, t, b):
        if t < b:
            passes.append((t, b))
        charge(span, remaining, rows, t, b)

    monkeypatch.setattr(simulator, "_charge_at_caps", spying)
    return passes


class TestOnePassSpans:
    """After a slot charged at the caps, the rest of its busy span is charged
    in one pass per session, with the run still the full scan's; a span with
    a repeated id or a peak rate not above 0 keeps the per-slot path."""

    @pytest.mark.parametrize("sessions, power, horizon, passes", [
        # a lands on its peak rate 1.0 exactly; b's 0.3 leaves 0.09999999999999998 < 0.1
        ((ChargingSession("a", 0, 10, 3.0, 1.0), ChargingSession("b", 0, 10, 0.3, 0.1)),
         ConstantPower(5.0), 10, [(1, 10)]),
        # a is left about 3e-12 after slot 1, above FINISHED_EPS * 2: charged at slot 2
        ((ChargingSession("a", 0, 6, 2.0 + 3e-12, 1.0),), ConstantPower(5.0), 6, [(1, 6)]),
        # a is left about 1e-12 after slot 1, at most FINISHED_EPS * 2: not charged
        ((ChargingSession("a", 0, 6, 2.0 + 1e-12, 1.0),), ConstantPower(5.0), 6, [(1, 6)]),
        # energies below 1 finish at FINISHED_EPS itself: a at 7e-13 left, b not at 1.5e-12
        ((ChargingSession("a", 0, 6, 0.5 + 7e-13, 0.25),
          ChargingSession("b", 0, 6, 0.5 + 1.5e-12, 0.25)), ConstantPower(1.0), 6, [(1, 6)]),
        # inf and NaN energies are never chargeable
        ((ChargingSession("a", 0, 6, math.inf, 1.0), ChargingSession("b", 0, 6, math.nan, 1.0),
          ChargingSession("c", 0, 6, 3.0, 1.0)), ConstantPower(5.0), 6, [(1, 6)]),
        # contended 0-2; the power rises at 3, a span boundary, and the pass starts at 4
        ((ChargingSession("a", 0, 8, 5.0, 1.0), ChargingSession("b", 0, 8, 5.0, 1.0)),
         StepwisePower([1.5] * 3 + [2.5] * 5), 8, [(4, 8)]),
        # the power drops under a's cap at 4, a span boundary, and rises at 6
        ((ChargingSession("a", 0, 8, 6.0, 1.0),), StepwisePower([2, 2, 2, 2, 0.5, 0.5, 2, 2]),
         8, [(1, 4), (7, 8)]),
    ], ids=["lands-on-peak-rate", "above-finished-eps", "below-finished-eps",
            "energies-below-one", "inf-and-nan-energies", "power-rises", "power-drops"])
    def test_one_pass_runs_as_the_full_scan(self, monkeypatch, sessions, power, horizon,
                                            passes):
        inst = Instance(sessions, power, horizon)
        for name in sorted(CAPS_FIRST):
            seen = one_pass_slots(monkeypatch)
            assert_runs_as_full_scan(inst, name)
            monkeypatch.undo()
            assert seen[:len(passes)] == passes, name  # simulate's; run_feasibility's follow
            assert run_outcome(inst, name) == frozen_run_outcome(inst, name), name

    @pytest.mark.parametrize("sessions", [
        (ChargingSession("a", 0, 8, 4.0, 1.0), ChargingSession("a", 0, 8, 4.0, 0.5),
         ChargingSession("b", 0, 8, 2.0, 1.0)),
        (ChargingSession("a", 0, 8, 1.0, 0.0), ChargingSession("b", 0, 8, 3.0, 1.0)),
        (ChargingSession("a", 0, 8, 1.0, -1e-12), ChargingSession("b", 0, 8, 3.0, 1.0)),
        (ChargingSession("a", 0, 8, 1.0, math.nan), ChargingSession("b", 0, 8, 3.0, 1.0)),
    ], ids=["repeated-id", "zero-peak-rate", "tiny-negative-peak-rate", "nan-peak-rate"])
    def test_guarded_spans_keep_the_per_slot_path(self, monkeypatch, sessions):
        inst = Instance(sessions, ConstantPower(10.0), 8)
        for name in sorted(CAPS_FIRST):
            seen = one_pass_slots(monkeypatch)
            assert_runs_as_full_scan(inst, name)
            monkeypatch.undo()
            assert seen == [], name
            assert run_outcome(inst, name) == frozen_run_outcome(inst, name), name
            if not math.isnan(sessions[0].max_rate):  # NaN: the run fails at slot 0
                assert policy_calls(monkeypatch, name, inst) == list(range(8)), name
                monkeypatch.undo()

    def test_unvalidated_instances_run_as_the_full_scan(self, monkeypatch):
        rng = random.Random(22)
        seen = one_pass_slots(monkeypatch)
        instances = [random_edge_instance(rng) for _ in range(300)]
        for inst in instances:
            for name in sorted(CAPS_FIRST):
                assert_runs_as_full_scan(inst, name)
        assert sum(b - t for t, b in seen) > 1000, len(seen)
        monkeypatch.undo()  # the frozen runs' one passes are not counted
        # the frozen sLLF and REP overshoot P(t) beside an infinite remaining energy,
        # which `_share_exactly` corrects
        finite = [inst for inst in instances
                  if not any(math.isinf(s.energy) for s in inst.sessions)]
        for inst in finite:
            for name in sorted(CAPS_FIRST):
                assert run_outcome(inst, name) == frozen_run_outcome(inst, name), (name, inst)
        assert len(finite) > 150, len(finite)


def random_kernel_instance(rng: random.Random) -> Instance:
    """`random_unvalidated_instance` with about one peak rate in ten 0 and, in
    about one instance in three, a power of 0, below 0 or NaN: throughout a
    constant power, or at about one slot in five of a stepwise one."""
    inst = random_unvalidated_instance(rng)
    sessions = [dataclasses.replace(s, max_rate=0.0) if rng.random() < 0.1 else s
                for s in inst.sessions]
    power, odd = inst.power, [0.0, -1.0, math.nan]
    if rng.random() < 0.35:
        if isinstance(power, StepwisePower):
            power = StepwisePower([rng.choice(odd) if rng.random() < 0.2 else p
                                   for p in power.values])
        else:
            power = ConstantPower(rng.choice(odd))
    return Instance(sessions, power, inst.horizon)


def run_outcome(instance, name):
    """(`simulate`'s dense schedule and verdict, `run_feasibility`'s flags), each
    by `repr` or as the type and message of its error."""
    try:
        schedule, verdict = simulate(instance, name)
        ran = repr((dense(schedule), verdict))
    except Exception as exc:  # noqa: BLE001  the error is the outcome compared
        ran = type(exc), str(exc)
    try:
        flags = repr(run_feasibility([instance], name))
    except Exception as exc:  # noqa: BLE001
        flags = type(exc), str(exc)
    return ran, flags


#: each policy's frozen reference (`policy_oracle`), OLP's the frozen OLP
FROZEN = {**REFERENCE_POLICIES, "olp": frozen_olp_rates}


def frozen_run_outcome(instance, name):
    """`run_outcome` of the run that calls policy `name`'s frozen reference
    at each busy slot (`busy_slot_run`): a rate kernel bug that the full
    scan shares, through the public functions, shows here."""
    policy = FROZEN[name]
    try:
        ran = repr(busy_slot_run(instance, policy))
    except Exception as exc:  # noqa: BLE001  the error is the outcome compared
        ran = type(exc), str(exc)
    try:
        flags = repr([busy_slot_run(instance, policy, stop_at_miss=True)[1].feasible])
    except Exception as exc:  # noqa: BLE001
        flags = type(exc), str(exc)
    return ran, flags


class TestKernelPath:
    """A run of sLLF, LLF, EDF, ES or REP calls the policy's rate kernel on
    the span it holds, with no `RateDecision` per slot, and equals the run
    that calls the frozen reference at each busy slot."""

    def test_runs_equal_runs_that_call_the_frozen_reference(self, monkeypatch):
        built = []  # each RateDecision a policy builds
        monkeypatch.setattr(schedulers, "RateDecision",
                            lambda *args, **kw: built.append(args) or RateDecision(*args, **kw))
        passes = one_pass_slots(monkeypatch)
        rng, seen = random.Random(30), collections.Counter()
        for _ in range(300):
            inst = random_kernel_instance(rng)
            busy = [t for a, b, _ in inst.busy_spans() for t in range(a, b)]
            ids = [s.id for s in inst.sessions]
            for name in sorted(CAPS_FIRST):
                built.clear()
                passes.clear()
                kernel = run_outcome(inst, name)
                assert built == [], name
                error = kernel[0][1] if isinstance(kernel[0], tuple) else ""
                if "negative station power" not in error:  # the frozen policies name none
                    assert kernel == frozen_run_outcome(inst, name), (name, inst)
                seen.update(kind for kind, hit in (
                    ("negative power", "negative station power" in error),
                    ("nan power", "exceeds power limit nan" in error),
                    ("zero peak rate", "peak rate 0" in error),
                    ("zero power", any(inst.power.at(t) == 0.0 for t in busy)),
                    ("stepwise", isinstance(inst.power, StepwisePower)),
                    ("repeated id", len(set(ids)) < len(ids)),
                    ("one pass", bool(passes)),
                    ("finished", not error),
                ) if hit)
        assert len(seen) == 8 and min(seen.values()) >= 10, seen


def repeated_slots(monkeypatch):
    """The (first, end) slots of each repeat of a contended EDF or ES
    decision with slots left, as runs make them (`_charge_repeats`)."""
    stretches, charge = [], simulator._charge_repeats

    def spying(cells, rates, remaining, rows, t, b):
        end = charge(cells, rates, remaining, rows, t, b)
        if end > t:
            stretches.append((t, end))
        return end

    monkeypatch.setattr(simulator, "_charge_repeats", spying)
    return stretches


def random_repeating_instance(rng: random.Random) -> Instance:
    """Up to eight sessions over 30 slots under a power below their peak
    rates' sum, constant or stepwise in blocks of four slots, so that EDF's
    and ES's contended decisions repeat: about half the energies a whole
    multiple of the peak rate, about one peak rate in ten 0, a tiny negative
    or NaN, about one id in five repeated, and in about one instance in
    four a NaN or negative power, throughout or at one slot."""
    sessions = []
    for k in range(rng.randint(2, 8)):
        arrival = rng.randint(0, 10)
        departure = arrival + rng.randint(1, 20)
        max_rate = rng.choice([0.5, 1.0, rng.uniform(0.2, 3.0)])
        if rng.random() < 0.5:
            energy = rng.randint(1, departure - arrival) * max_rate
        else:
            energy = max_rate * (departure - arrival) * rng.uniform(0.3, 1.0)
        if rng.random() < 0.1:
            max_rate = rng.choice([0.0, -1e-12, math.nan])
        sid = f"s{rng.randrange(k)}" if k and rng.random() < 0.2 else f"s{k}"
        sessions.append(ChargingSession(sid, arrival, departure, energy, max_rate))
    horizon = max(s.departure for s in sessions)
    peak = sum(s.max_rate for s in sessions if s.max_rate > 0.0)
    if rng.random() < 0.5:
        power = ConstantPower(peak * rng.uniform(0.1, 0.6))
    else:
        levels = [peak * rng.uniform(0.1, 0.6) for _ in range(horizon // 4 + 1)]
        power = StepwisePower([levels[t // 4] for t in range(horizon)])
    if rng.random() < 0.25:
        odd = rng.choice([math.nan, -1.0])
        if isinstance(power, ConstantPower):
            power = ConstantPower(odd)
        else:
            values = list(power.values)
            values[rng.randrange(horizon)] = odd
            power = StepwisePower(values)
    return Instance(sessions, power, horizon)


class TestRepeatedDecisions:
    """After EDF or ES decides a contended slot of a span with distinct ids
    and peak rates above 0, the run charges the same rates at the next slots
    without a kernel call while each session given a rate above 0 keeps its
    peak rate as its cap and stays chargeable; every run stays the frozen
    reference's."""

    @pytest.mark.parametrize("name, stretches, decided", [
        # a takes 1.0 and b 0.5 until a is left 0.0 after slot 4; b alone fits from 5 on
        ("edf", [(1, 5)], [0, 5]),
        # each takes 0.75 until both are left 0.5 after slot 5, under their peak rate
        ("es", [(1, 6)], [0, 6]),
    ])
    def test_a_repeat_stops_where_a_cap_falls(self, monkeypatch, name, stretches, decided):
        inst = Instance((ChargingSession("a", 0, 10, 5.0, 1.0),
                         ChargingSession("b", 0, 10, 5.0, 1.0)), ConstantPower(1.5), 10)
        seen = repeated_slots(monkeypatch)
        assert_same_run(inst, name)
        assert seen[:len(stretches)] == stretches
        monkeypatch.undo()
        assert policy_calls(monkeypatch, name, inst) == decided == expected_calls(inst, name)

    @pytest.mark.parametrize("name", ["edf", "es"])
    def test_a_repeat_stops_where_a_session_finishes(self, monkeypatch, name):
        # a's later session sets the id's energy, 3e-9, under its first
        # session's done level of 1e-9 plus 20 slots at its peak rate 1e-10
        inst = Instance((ChargingSession("a", 0, 40, 1e3, 1e-10),
                         ChargingSession("b", 0, 40, 40.0, 1.0),
                         ChargingSession("a", 50, 52, 3e-9, 1.0)), ConstantPower(0.5), 52)
        seen = repeated_slots(monkeypatch)
        assert run_outcome(inst, name) == frozen_run_outcome(inst, name)
        assert seen[:2] == [(1, 20), (21, 40)]
        monkeypatch.undo()
        assert policy_calls(monkeypatch, name, inst) == [0, 20, 50] == expected_calls(inst, name)

    def test_runs_equal_runs_that_call_the_frozen_reference(self, monkeypatch):
        stretches = repeated_slots(monkeypatch)
        rng, seen = random.Random(38), collections.Counter()
        for _ in range(300):
            inst = random_repeating_instance(rng)
            ids = [s.id for s in inst.sessions]
            for name in ("edf", "es"):
                stretches.clear()
                ran = run_outcome(inst, name)
                error = ran[0][1] if isinstance(ran[0], tuple) else ""
                if "negative station power" not in error:  # the frozen policies name none
                    assert ran == frozen_run_outcome(inst, name), (name, inst)
                seen[name] += sum(end - t for t, end in stretches)
                seen.update(kind for kind, hit in (
                    ("negative power", "negative station power" in error),
                    ("nan power", "exceeds power limit nan" in error),
                    ("stepwise", isinstance(inst.power, StepwisePower)),
                    ("repeated id", len(set(ids)) < len(ids)),
                    ("odd peak rate", any(not s.max_rate > 0.0 for s in inst.sessions)),
                    ("whole multiple", any(s.max_rate > 0.0 and (s.energy / s.max_rate).is_integer()
                                           for s in inst.sessions)),
                ) if hit)
        assert seen["edf"] > 1000 and seen["es"] > 1000, seen
        assert min(seen.values()) >= 10, seen


def random_contended_instance(rng: random.Random) -> Instance:
    """Up to ten overlapping valid sessions, arriving over ten slots, under a
    constant or stepwise power of 0.4-0.9 times their mean demand per slot,
    so that OLP falls back and checks failed residuals again."""
    sessions = []
    for k in range(rng.randint(2, 10)):
        a = rng.randint(0, 10)
        d = a + rng.randint(1, 8)
        r_bar = rng.uniform(0.2, 3.0)
        sessions.append(ChargingSession(f"s{k}", a, d, r_bar * (d - a) * rng.uniform(0.3, 1.0),
                                        r_bar))
    horizon = max(s.departure for s in sessions)
    mean = sum(s.energy for s in sessions) / horizon
    if rng.random() < 0.5:
        power = ConstantPower(mean * rng.uniform(0.4, 0.9))
    else:
        power = StepwisePower([mean * rng.uniform(0.3, 1.0) for _ in range(horizon)])
    return Instance(sessions, power, horizon)


class TestOlpKernel:
    """A run of OLP calls its rate kernel `_olp` at each busy slot, with no
    `RateDecision` and, where the ids are unique, no rates by id; it equals
    the run of the frozen OLP (`policy_oracle.olp_rates`), which decides
    every busy slot."""

    def test_runs_equal_the_frozen_olp_s(self, monkeypatch):
        built, by_id, fell = [], [], []
        monkeypatch.setattr(schedulers, "RateDecision",
                            lambda *args, **kw: built.append(args) or RateDecision(*args, **kw))
        charge_ids, olp = simulator._charge_ids, simulator._olp
        monkeypatch.setattr(simulator, "_charge_ids",
                            lambda *args: by_id.append(args[3]) or charge_ids(*args))

        def kernel_counting(*args):
            decided = olp(*args)
            if decided[4] != "followed":  # counted by `followed_slots`
                fell.append(decided[4])  # how: "solved", "fallback", "skipped" or "checked"
            return decided
        monkeypatch.setattr(simulator, "_olp", kernel_counting)
        followed = followed_slots(monkeypatch)
        rng, seen = random.Random(34), collections.Counter()
        for k in range(400):
            inst = random_kernel_instance(rng) if k % 2 else random_contended_instance(rng)
            ids = [s.id for s in inst.sessions]
            for lst in (built, by_id, fell, followed):
                lst.clear()
            kernel = run_outcome(inst, "olp")
            assert built == [], inst
            if len(set(ids)) == len(ids):
                assert by_id == [], inst
            seen.update(fell)
            seen["followed"] += bool(followed)
            assert frozen_run_outcome(inst, "olp") == kernel, inst
            error = kernel[0][1] if isinstance(kernel[0], tuple) else ""
            seen.update(kind for kind, hit in (
                ("negative power", "OLP: negative station power" in error),
                ("stepwise", isinstance(inst.power, StepwisePower)),
                ("repeated id", len(set(ids)) < len(ids)),
                ("finished", not error),
            ) if hit)
        kinds = ("solved", "fallback", "skipped", "checked", "followed", "negative power",
                 "stepwise", "repeated id", "finished")
        assert min(seen[kind] for kind in kinds) >= 10, seen

    def test_a_kept_cut_decides_checks_as_the_max_flow_does(self, monkeypatch):
        # each check of a failed residual after the first is first put to the cut
        # of the last failed one, and a max-flow runs only where it does not decide
        checks, flows = [], []
        recheck, failed_cut = schedulers._recheck, schedulers.failed_cut
        monkeypatch.setattr(schedulers, "_recheck",
                            lambda *args: checks.append(args[4].get("olp_cut")) or recheck(*args))
        monkeypatch.setattr(schedulers, "failed_cut",
                            lambda *args: flows.append(1) or failed_cut(*args))
        rng = random.Random(35)
        instances = [random_contended_instance(rng) for _ in range(300)]
        for inst in instances:
            kernel = run_outcome(inst, "olp")
            assert frozen_run_outcome(inst, "olp") == kernel, inst
        kept = sum(cut is not None for cut in checks)
        assert len(checks) > 100 and kept > 50 and len(flows) < len(checks) - 50, (
            len(checks), kept, len(flows))


def followed_slots(monkeypatch):
    """The slots at which runs' `_olp` follows OLP's plan, in the order they
    charge them."""
    slots, olp = [], simulator._olp

    def spying(instance, span, remaining, t, memory):
        decided = olp(instance, span, remaining, t, memory)
        if decided[4] == "followed":
            slots.append(t)
        return decided

    monkeypatch.setattr(simulator, "_olp", spying)
    return slots


def olp_editing_plans(monkeypatch, edit):
    """Make OLP's kernel, in runs and in `decide`, hand each plan a solve
    stores to `edit(rows by session id, plan start)` before it is read."""
    olp = schedulers._olp

    def editing(inst, cells, remaining, t, memory):
        decided = olp(inst, cells, remaining, t, memory)
        if decided[4] == "solved" and decided[0]:
            _, start, _, planned = memory["olp"]
            edit({s.id: planned[id(s)] for s in inst.sessions if id(s) in planned}, start)
        return decided

    monkeypatch.setattr(schedulers, "_olp", editing)
    monkeypatch.setattr(simulator, "_olp", editing)


class TestOlpPlanSpans:
    """Where OLP's plan holds every chargeable session, `_olp` gives the
    plan's rates and the run charges them through `_charge`'s clamp and
    checks, which raise at the slot where a solve's rates would."""

    def test_rates_are_clamped_as_charge_clamps_them(self, monkeypatch):
        # the plan gives a its cap 1.0 at slots 0 and 1 and b 1.0 at slot 2
        inst = Instance((ChargingSession("a", 0, 4, 2.0, 1.0),
                         ChargingSession("b", 0, 4, 1.0, 1.0)), ConstantPower(1.0))
        above = 1.0 + 3 * 2.0 ** -52  # three ulps above a's cap, inside RATE_TOL

        def edit(rows, start):
            assert rows == {"a": [1.0, 1.0, 0.0, 0.0], "b": [0.0, 0.0, 1.0, 0.0]}
            rows["a"][1] = above  # charged at the cap
            rows["b"][1] = -0.0  # charged as 0.0 is, and not written to b's row

        olp_editing_plans(monkeypatch, edit)
        followed = followed_slots(monkeypatch)
        assert_runs_as_full_scan(inst, "olp")
        assert followed == [1, 2, 3] * 2  # simulate's and run_feasibility's
        schedule, verdict = simulate(inst, "olp")
        assert schedule.rates == {"a": (1.0, 1.0, 0.0, 0.0), "b": (0.0, 0.0, 1.0, 0.0)}
        assert verdict.feasible and verdict.unmet_energy == {"a": 0.0, "b": 0.0}

    def test_a_slot_total_over_the_power_raises_as_slot_by_slot(self, monkeypatch):
        # each row moves 0.3 from its last slot to slot 3: every rate stays
        # under its cap, but slot 3's total goes over P = 0.6
        inst = Instance((ChargingSession("a", 0, 10, 3.0, 1.0),
                         ChargingSession("b", 0, 10, 3.0, 1.0)), ConstantPower(0.6))

        def overfill(rows, start):
            for row in rows.values():
                last = max(k for k, r in enumerate(row) if r > 0.0)
                assert last > 3 - start
                row[3 - start] += 0.3
                row[last] -= 0.3

        olp_editing_plans(monkeypatch, overfill)
        with pytest.raises(PolicyContractError) as expected:
            full_scan_simulate(inst, "olp")
        message = str(expected.value)
        assert message.startswith("total rate ") and message.endswith(
            " exceeds power limit 0.6 at slot 3")
        followed = followed_slots(monkeypatch)
        for run in (lambda: simulate(inst, "olp"), lambda: run_feasibility([inst], "olp")):
            with pytest.raises(PolicyContractError, match=f"^{re.escape(message)}$"):
                run()
        assert followed == [1, 2, 3] * 2  # slot 3's rates are the plan's, and `_charge` raises

    @pytest.mark.parametrize("energy", [2.0, 2.0 + 3e-13], ids=["exact", "within-finished-eps"])
    def test_a_session_that_finishes_mid_span(self, monkeypatch, energy):
        # a finishes after slots 0 and 1, with 3e-13 left or none; its plan is
        # given 3e-13 at slot 2, which a run must not charge, as a no longer
        # counts as chargeable
        inst = Instance((ChargingSession("a", 0, 6, energy, 1.0),
                         ChargingSession("b", 0, 6, 4.0, 1.0)), ConstantPower(2.0))

        def leave(rows, start):
            assert rows["a"] == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
            rows["a"][2] = 3e-13

        olp_editing_plans(monkeypatch, leave)
        followed = followed_slots(monkeypatch)
        assert_runs_as_full_scan(inst, "olp")
        assert followed == [1, 2, 3, 4, 5] * 2
        schedule, verdict = simulate(inst, "olp")
        assert schedule.rates["a"] == (1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert verdict.unmet_energy["a"] == energy - 2.0

    def test_a_span_with_a_repeated_id_is_charged_from_the_plan(self, monkeypatch):
        # the plan holds both sessions of "a" by object; its rates go by id,
        # the second session's entry in the first's place, as `decide` gives them
        inst = Instance((ChargingSession("a", 0, 6, 2.0, 1.0),
                         ChargingSession("a", 0, 6, 2.0, 1.0),
                         ChargingSession("b", 0, 6, 3.0, 1.0)), ConstantPower(2.0))
        followed = followed_slots(monkeypatch)
        assert_runs_as_full_scan(inst, "olp")
        assert followed == [1, 2, 3, 4, 5] * 2
        assert policy_calls(monkeypatch, "olp", inst) == [0]

    def test_a_departure_inside_the_plan_is_followed_across_spans(self, monkeypatch):
        # a departs at 2, which opens the span [2, 5) with b alone; nothing
        # arrives, so the plan made at slot 0 holds b there and OLP is not asked
        inst = Instance((ChargingSession("a", 0, 2, 1.5, 1.0),
                         ChargingSession("b", 0, 5, 2.0, 1.0)), ConstantPower(1.0))
        assert [a for a, _, _ in inst.busy_spans()] == [0, 2]
        followed = followed_slots(monkeypatch)
        assert_runs_as_full_scan(inst, "olp")
        assert followed == [1, 2, 3, 4] * 2
        assert expected_calls(inst, "olp") == [0]
        assert policy_calls(monkeypatch, "olp", inst) == [0]

    def test_unvalidated_instances_run_as_the_full_scan(self, monkeypatch):
        rng = random.Random(23)
        followed = followed_slots(monkeypatch)
        for _ in range(300):
            assert_runs_as_full_scan(random_edge_instance(rng), "olp")
        assert len(followed) > 100, followed
