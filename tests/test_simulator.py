import collections
import dataclasses
import math
import random
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from evcs import dynamics, schedulers, simulator
from evcs.dynamics import SimState, initial_state
from evcs.feasibility import is_offline_feasible, offline_feasible, validate_schedule
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

    def test_short_stepwise_power_is_the_oracles_contract_error(self):
        # the run and the oracle take only what `validate` accepts
        inst = Instance((ChargingSession("a", 0, 3, 1.0, 1.0),), StepwisePower([1.0]), 3)
        message = (r"^invalid instance: power-profile-short \(slot 1\): "
                   "stepwise profile does not cover the horizon$")
        with pytest.raises(ContractError, match=message):
            is_offline_feasible(inst)
        for name in POLICIES:
            with pytest.raises(ContractError, match=message):
                simulate(inst, name)


def random_valid_instance(rng: random.Random) -> Instance:
    """A small instance that `validate` accepts: sojourns from slot 0 to the
    horizon, often sharing their arrivals and departures, idle gaps and idle
    tails, sessions listed out of time order, energies from a tenth to all of
    what the peak rate delivers over the sojourn, and a constant or stepwise
    power, which may be 0."""
    horizon = rng.randint(1, 12)
    shared = [rng.randint(0, horizon) for _ in range(2)]
    sessions = []
    for k in range(rng.randint(1, 6)):
        arrival = rng.choice(shared) if rng.random() < 0.3 else rng.randint(0, horizon)
        if arrival == horizon:
            arrival -= 1
        departure = min(arrival + rng.randint(1, 8), horizon)
        max_rate = rng.choice([0.5, 1.0, 2.0])
        reach = max_rate * (departure - arrival)
        energy = reach if rng.random() < 0.15 else rng.uniform(0.1 * reach, reach)
        sessions.append(ChargingSession(f"s{k}", arrival, departure, energy, max_rate))
    rng.shuffle(sessions)
    if rng.random() < 0.5:
        power = ConstantPower(0.0 if rng.random() < 0.1 else rng.uniform(0.0, 4.0))
    else:
        power = StepwisePower([rng.choice([0.0, 0.5, 1.0, 2.5, 4.0]) for _ in range(horizon)])
    return Instance(sessions, power, horizon)


class TestRunFeasibility:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_verdicts_of_simulate_on_corpora(self, reference_corpus, spaced_corpus, policy):
        instances = reference_corpus + spaced_corpus
        assert run_feasibility(instances, policy) == \
            [simulate(inst, policy)[1].feasible for inst in instances]

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_verdicts_of_simulate_on_random_instances(self, policy):
        rng = random.Random(20)
        covered = collections.Counter()
        for _ in range(1000):
            inst = random_valid_instance(rng)
            verdict = simulate(inst, policy)[1]
            assert run_feasibility([inst], policy) == [verdict.feasible]
            sessions, horizon = inst.sessions, inst.horizon
            covered.update(name for name, hit in (
                ("arrival at 0", any(s.arrival == 0 for s in sessions)),
                ("departure at the horizon", any(s.departure == horizon for s in sessions)),
                ("idle tail", max(s.departure for s in sessions) < horizon),
                ("whole peak rate energy", any(s.energy == s.max_rate * s.sojourn
                                               for s in sessions)),
                ("stepwise power", isinstance(inst.power, StepwisePower)),
                ("no power", inst.power.bounds(horizon)[0] == 0.0),
                ("infeasible", not verdict.feasible),
                ("feasible", verdict.feasible),
            ) if hit)
        assert len(covered) == 8 and min(covered.values()) >= 50, covered

    @pytest.mark.parametrize("sessions, decided, feasible", [
        # "a" misses at its window end 2, as "b" takes slot 0: slots 2 to 5
        # of "c" are not decided
        ((ChargingSession("b", 0, 1, 1.0, 1.0), ChargingSession("a", 0, 2, 1.5, 1.0),
          ChargingSession("c", 1, 6, 1.0, 1.0)), [0, 1], False),
    ], ids=["miss"])
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


class TestSmoothingLemma:
    """At each contended slot of an sLLF run the kernel's threshold is the
    water level L, and each chargeable session's rate r, out of its cap,
    sets its laxity l at the slot and its next-slot laxity l - 1 + r / peak
    rate as the lemma says: a session charged strictly between 0 and its
    cap has next-slot laxity L, one left at 0 has laxity at least L + 1, and
    one at its cap next-slot laxity at most L, each within 1e-9 of the
    largest of 1, |L| and |l|.  Where `_share_exactly` took the rates again
    from L's segment, the lemma is not what they meet: those slots are
    counted, and there every rate lies in [0, cap] and the rates sum to
    P(t) within `_charge`'s tolerance."""

    def run_checking(self, monkeypatch, instances) -> collections.Counter:
        kernel_rates, share = simulator._kernel_rates, schedulers._share_exactly
        shared, seen = [], collections.Counter()
        monkeypatch.setattr(schedulers, "_share_exactly",
                            lambda *args: shared.append(1) or share(*args))

        def checking(kernel, span, remaining, p_limit, t, ordered=None):
            del shared[:]
            decided = kernel_rates(kernel, span, remaining, p_limit, t, ordered)
            cells, rates, at_caps, level, _ = decided
            if kernel is not schedulers._sllf or at_caps:
                return decided
            seen["slots"] += 1
            caps = [min(cell[1], remaining[cell[0]]) for cell in cells]
            if shared:
                seen["shared exactly"] += 1
                assert all(0.0 <= r <= cap for r, cap in zip(rates, caps)), t
                assert abs(sum(rates) - p_limit) <= dynamics.RATE_TOL * max(1.0, p_limit), t
                return decided
            for cell, r, cap in zip(cells, rates, caps):
                rem, max_rate = remaining[cell[0]], cell[1]
                lax = cell[5].departure - t - rem / max_rate
                after = cell[5].departure - (t + 1) - (rem - r) / max_rate
                tol = 1e-9 * max(1.0, abs(lax), abs(level) if math.isfinite(level) else 0.0)
                if r == 0.0:
                    assert lax >= level + 1.0 - tol, (t, cell[3])
                    seen["at 0"] += 1
                elif r == cap:
                    assert after <= level + tol, (t, cell[3])
                    seen["at the cap"] += 1
                else:
                    assert 0.0 < r < cap and abs(after - level) <= tol, (t, cell[3])
                    seen["between"] += 1
            return decided

        monkeypatch.setattr(simulator, "_kernel_rates", checking)
        for inst in instances:
            simulate(inst, "sllf")
        return seen

    def test_on_random_instances(self, monkeypatch):
        rng = random.Random(44)
        instances = [(random_edge_instance if k % 2 else random_valid_instance)(rng)
                     for k in range(600)]
        seen = self.run_checking(monkeypatch, instances)
        assert min(seen[k] for k in ("at 0", "at the cap", "between")) >= 100, seen
        assert seen["shared exactly"] == 0, seen

    def test_where_the_rates_are_shared_exactly(self, monkeypatch):
        # `TestFarApartNumbers`' huge peak rates, whose rates from L miss P(t)
        huge = [Instance((ChargingSession("a", 0, 27, 5.1e13, 3.2e12),), ConstantPower(0.0015)),
                Instance((ChargingSession("a", 0, 19, 138394.01548547982, 9725.873887230646),
                          ChargingSession("b", 0, 5, 49.75309804282538, 289713079182.51794)),
                         ConstantPower(2500.0))]
        seen = self.run_checking(monkeypatch, huge)
        assert seen["shared exactly"] >= 10 and seen["between"] >= 10, seen

    def test_on_a_day_width_instance(self, monkeypatch):
        seen = self.run_checking(monkeypatch, [day_width_instance(31)])
        assert min(seen[k] for k in ("slots", "at 0", "at the cap", "between")) >= 20, seen
        assert seen["shared exactly"] == 0, seen


class TestOneDispatchPath:
    """A run decides each slot only through `KERNELS`, by the policy's name:
    what `POLICIES` holds changes no run."""

    def test_runs_call_no_entry_of_policies(self, monkeypatch, reference_corpus, spaced_corpus):
        overlapping = Instance((ChargingSession("a", 0, 5, 6.0, 2.0),
                                ChargingSession("c", 3, 8, 2.0, 0.5),
                                ChargingSession("b", 2, 8, 3.0, 1.0)), ConstantPower(2.5), 8)
        instances = reference_corpus[::25] + spaced_corpus[::25] + [overlapping,
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
    (`threshold == inf`) in its span, where a span ends wherever the active
    sessions or the power change; for EDF and ES also but those after a
    contended decision in its span, as long as each session given a rate
    above 0 there is left at least its peak rate and more than its
    `done_level`; for OLP each one where the run memory holds no plan, or
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
            skip = name in CAPS_FIRST and decision.threshold == math.inf
            repeated = None
            if name in ("edf", "es") and decision.threshold != math.inf:
                repeated = [sessions[k] for k in positions
                            if decision.rates.get(sessions[k].id, 0.0) > 0.0]
        state = full_scan_charge(state, decision.rates, instance)[0]
    return calls


class TestUncontendedSlots:
    """After a decision at the caps the run charges the rest of its span
    without a policy call, EDF
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
        # a is left 3e-13 after slot 1, under FINISHED_EPS of its energy: no longer chargeable
        ((ChargingSession("a", 0, 6, 2.0 + 3e-13, 1.0), ChargingSession("b", 0, 6, 2.0, 1.0)),
         ConstantPower(1.5), 6),
    ], ids=["long-tail", "arrival-contends", "power-drop", "finished-within-eps"])
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

    def test_random_instances_run_as_the_full_scan(self, monkeypatch):
        rng = random.Random(21)
        skipped = 0
        for _ in range(300):
            inst = random_valid_instance(rng)
            busy = sum(b - a for a, b, _ in inst.busy_spans())
            for name in sorted(CAPS_FIRST):
                schedule, verdict = simulate(inst, name)
                assert repr((dense(schedule), verdict)) == repr(full_scan_simulate(inst, name))
                assert run_feasibility([inst], name) == [verdict.feasible], name
                calls = policy_calls(monkeypatch, name, inst)
                monkeypatch.undo()
                assert calls == expected_calls(inst, name), name
                skipped += busy - len(calls)
        assert skipped > 800, skipped


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


#: energies whose `DEMAND_TOL` share is below 1e-12, 0.0 for the subnormal ones
TINY_ENERGIES = [1e-7, 1e-13, 1e-300, 1e-320, 5e-324]

#: peak rates far above any power drawn, and above the energies they charge
HUGE_PEAK_RATES = [1e3, 1e5]


def random_edge_instance(rng: random.Random) -> Instance:
    """`random_valid_instance` with about half the energies replaced by a
    whole number of slots at the peak rate, such a number less or, below the
    whole sojourn, more a hair of 0.5e-12 or 3e-12 of the energy (within or
    beyond `FINISHED_EPS`), a value below 1 or a tiny or subnormal one
    (`TINY_ENERGIES`), and about one peak rate in ten by a huge one
    (`HUGE_PEAK_RATES`)."""
    inst = random_valid_instance(rng)
    sessions = []
    for s in inst.sessions:
        energy, max_rate, sojourn = s.energy, s.max_rate, s.sojourn
        if rng.random() < 0.5:
            slots = rng.randint(1, sojourn)
            whole = slots * max_rate
            hairs = [-3e-12, -0.5e-12] + ([0.5e-12, 3e-12] if slots < sojourn else [])
            energy = rng.choice([whole, whole * (1.0 + rng.choice(hairs)),
                                 rng.uniform(0.01, 1.0) * min(1.0, whole),
                                 rng.choice(TINY_ENERGIES)])
        if rng.random() < 0.1:
            max_rate = rng.choice(HUGE_PEAK_RATES)
        sessions.append(dataclasses.replace(s, energy=energy, max_rate=max_rate))
    return Instance(sessions, inst.power, inst.horizon)


class TestNoRemainingEnergyRises:
    """A rate is charged at no less than 0.0, so no run raises a remaining
    energy."""

    def test_edge_instances_never_raise_a_remaining_energy(self, monkeypatch):
        rng = random.Random(39)
        charge, slots = dynamics._charge, collections.Counter()

        def watching(remaining, cells, rates, t, p_limit, rows=None):
            before = list(remaining)
            try:
                charge(remaining, cells, rates, t, p_limit, rows)
            finally:
                assert not any(now > then for now, then in zip(remaining, before)), t
            slots["charged"] += 1

        monkeypatch.setattr(simulator, "_charge", watching)
        for _ in range(300):
            inst = random_edge_instance(rng)
            initial = initial_state(inst).remaining
            for name in sorted(POLICIES):
                verdict = simulate(inst, name)[1]
                assert not any(verdict.unmet_energy[sid] > e for sid, e in initial.items())
        assert slots["charged"] > 3000, slots


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
    in one pass per session, with the run still the full scan's."""

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
        # contended 0-2; the power rises at 3, a span boundary, and the pass starts at 4
        ((ChargingSession("a", 0, 8, 5.0, 1.0), ChargingSession("b", 0, 8, 5.0, 1.0)),
         StepwisePower([1.5] * 3 + [2.5] * 5), 8, [(4, 8)]),
        # the power drops under a's cap at 4, a span boundary, and rises at 6
        ((ChargingSession("a", 0, 8, 6.0, 1.0),), StepwisePower([2, 2, 2, 2, 0.5, 0.5, 2, 2]),
         8, [(1, 4), (7, 8)]),
    ], ids=["lands-on-peak-rate", "above-finished-eps", "below-finished-eps",
            "energies-below-one", "power-rises", "power-drops"])
    def test_one_pass_runs_as_the_full_scan(self, monkeypatch, sessions, power, horizon,
                                            passes):
        inst = Instance(sessions, power, horizon)
        for name in sorted(CAPS_FIRST):
            seen = one_pass_slots(monkeypatch)
            assert_runs_as_full_scan(inst, name)
            monkeypatch.undo()
            assert seen[:len(passes)] == passes, name  # simulate's; run_feasibility's follow
            assert run_outcome(inst, name) == frozen_run_outcome(inst, name), name

    def test_edge_instances_run_as_the_full_scan(self, monkeypatch):
        rng = random.Random(22)
        seen = one_pass_slots(monkeypatch)
        instances = [random_edge_instance(rng) for _ in range(300)]
        for inst in instances:
            for name in sorted(CAPS_FIRST):
                assert_runs_as_full_scan(inst, name)
        assert sum(b - t for t, b in seen) > 1000, len(seen)
        monkeypatch.undo()  # the frozen runs' one passes are not counted
        for inst in instances:
            for name in sorted(CAPS_FIRST):
                assert run_outcome(inst, name) == frozen_run_outcome(inst, name), (name, inst)


def random_kernel_instance(rng: random.Random) -> Instance:
    """`random_valid_instance` with about one peak rate in ten huge
    (`HUGE_PEAK_RATES`) and, in about one instance in three, a power of 0:
    throughout a constant power, or at about one slot in five of a stepwise
    one."""
    inst = random_valid_instance(rng)
    sessions = [dataclasses.replace(s, max_rate=rng.choice(HUGE_PEAK_RATES))
                if rng.random() < 0.1 else s for s in inst.sessions]
    power = inst.power
    if rng.random() < 0.35:
        if isinstance(power, StepwisePower):
            power = StepwisePower([0.0 if rng.random() < 0.2 else p for p in power.values])
        else:
            power = ConstantPower(0.0)
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
            for name in sorted(CAPS_FIRST):
                built.clear()
                passes.clear()
                kernel = run_outcome(inst, name)
                assert built == [], name
                assert kernel == frozen_run_outcome(inst, name), (name, inst)
                seen.update(kind for kind, hit in (
                    ("zero power", any(inst.power.at(t) == 0.0 for t in busy)),
                    ("stepwise", isinstance(inst.power, StepwisePower)),
                    ("huge peak rate", any(s.max_rate in HUGE_PEAK_RATES for s in inst.sessions)),
                    ("one pass", bool(passes)),
                    ("infeasible", "False" in kernel[1]),
                ) if hit)
        assert len(seen) == 5 and min(seen.values()) >= 10, seen


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
    multiple of the peak rate, about one peak rate in ten huge
    (`HUGE_PEAK_RATES`), and in about one instance in four a power of 0,
    throughout or at one slot."""
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
            max_rate = rng.choice(HUGE_PEAK_RATES)
        sessions.append(ChargingSession(f"s{k}", arrival, departure, energy, max_rate))
    horizon = max(s.departure for s in sessions)
    peak = sum(min(s.max_rate, 3.0) for s in sessions)
    if rng.random() < 0.5:
        power = ConstantPower(peak * rng.uniform(0.1, 0.6))
    else:
        levels = [peak * rng.uniform(0.1, 0.6) for _ in range(horizon // 4 + 1)]
        power = StepwisePower([levels[t // 4] for t in range(horizon)])
    if rng.random() < 0.25:
        if isinstance(power, ConstantPower):
            power = ConstantPower(0.0)
        else:
            values = list(power.values)
            values[rng.randrange(horizon)] = 0.0
            power = StepwisePower(values)
    return Instance(sessions, power, horizon)


class TestRepeatedDecisions:
    """After EDF or ES decides a contended slot of a span, the run charges
    the same rates at the next slots
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

    def test_a_repeat_stops_where_a_session_finishes(self):
        # a's done level, DEMAND_TOL of its energy 1e-7, is about twice its peak
        # rate 5e-14, which takes two million slots to deliver it: left 1.05e-12
        # part way, a keeps its peak rate as its cap to the end, and the repeat
        # stops where a has its demand, 20 slots on
        inst = Instance((ChargingSession("a", 0, 2_000_000, 1e-7, 5e-14),
                         ChargingSession("b", 0, 2_000_000, 40.0, 1.0)), ConstantPower(0.5))
        assert validate(inst) == []
        cells = dynamics._cells(inst.sessions, range(2))
        done = cells[0][4]
        remaining, rows = [1.05e-12, 30.0], [(0, [0.0] * 30), (0, [0.0] * 30)]
        assert simulator._charge_repeats(cells, [5e-14, 0.4], remaining, rows, 1, 30) == 21
        assert 5e-14 <= remaining[0] <= done < remaining[0] + 5e-14
        assert rows[0][1][1:21] == [5e-14] * 20 and rows[1][1][1:21] == [0.4] * 20
        assert rows[0][1][21:] == rows[1][1][21:] == [0.0] * 9

    def test_runs_equal_runs_that_call_the_frozen_reference(self, monkeypatch):
        stretches = repeated_slots(monkeypatch)
        rng, seen = random.Random(38), collections.Counter()
        for _ in range(300):
            inst = random_repeating_instance(rng)
            for name in ("edf", "es"):
                stretches.clear()
                ran = run_outcome(inst, name)
                assert ran == frozen_run_outcome(inst, name), (name, inst)
                seen[name] += sum(end - t for t, end in stretches)
                seen.update(kind for kind, hit in (
                    ("stepwise", isinstance(inst.power, StepwisePower)),
                    ("zero power", inst.power.bounds(inst.horizon)[0] == 0.0),
                    ("huge peak rate", any(s.max_rate in HUGE_PEAK_RATES for s in inst.sessions)),
                    ("whole multiple", any((s.energy / s.max_rate).is_integer()
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
    `RateDecision`; it equals the run of the frozen OLP
    (`policy_oracle.olp_rates`), which decides every busy slot."""

    def test_runs_equal_the_frozen_olp_s(self, monkeypatch):
        built, fell = [], []
        monkeypatch.setattr(schedulers, "RateDecision",
                            lambda *args, **kw: built.append(args) or RateDecision(*args, **kw))
        olp = simulator._olp

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
            for lst in (built, fell, followed):
                lst.clear()
            kernel = run_outcome(inst, "olp")
            assert built == [], inst
            seen.update(fell)
            seen["followed"] += bool(followed)
            assert frozen_run_outcome(inst, "olp") == kernel, inst
            seen.update(kind for kind, hit in (
                ("stepwise", isinstance(inst.power, StepwisePower)),
                ("huge peak rate", any(s.max_rate in HUGE_PEAK_RATES for s in inst.sessions)),
                ("infeasible", "False" in kernel[1]),
            ) if hit)
        kinds = ("solved", "fallback", "skipped", "checked", "followed", "stepwise",
                 "huge peak rate", "infeasible")
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

    def test_edge_instances_run_as_the_full_scan(self, monkeypatch):
        rng = random.Random(23)
        followed = followed_slots(monkeypatch)
        for _ in range(300):
            assert_runs_as_full_scan(random_edge_instance(rng), "olp")
        assert len(followed) > 100, followed
