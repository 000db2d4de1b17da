"""The six policies against their frozen reference (`policy_oracle`).

Each decision must equal the reference float for float: the rates by `repr`
and in key order, the `threshold` and the `diagnostics`, or the same
`ContractError` message; OLP's `solver_steps` may be one fewer.  Whole runs
must give the same schedules and verdicts as runs driven by the reference
policies; OLP's as runs of the frozen OLP that decide every busy slot.
LLF's rate kernel and ES and REP's must return what their frozen tuple
sorts return, on slots built to tie and on inputs that keep the tuple sort.
These tests run on every Python version of the tier-1 matrix, where `sum()`
differs from 3.12 on.
"""
import math
import random
from collections import Counter

import pytest

from evcs import schedulers
from evcs.dynamics import FINISHED_EPS, SimState, _cells, initial_state, step
from evcs.model import ChargingSession, ConstantPower, ContractError, Instance, StepwisePower
from evcs.schedulers import POLICIES
from evcs.simulator import run_feasibility, simulate

from policy_oracle import REFERENCE_POLICIES, llf_kernel, proportional_fill_kernel
from policy_oracle import olp_rates as frozen_olp_rates
from sim_oracle import busy_slot_run, dense, full_scan_chargeable


def outcome(policy, state, instance, t):
    """The decision as (rates, threshold, diagnostics) reprs, or the error message."""
    try:
        d = policy(SimState(t, dict(state.remaining)), instance, t)
    except ContractError as exc:
        return "error", type(exc).__name__, str(exc)
    return repr(d.rates), repr(d.threshold), repr(d.diagnostics)


def run_outcome(instance, name):
    """(dense schedule, verdict) reprs and `run_feasibility`'s flag, or the error message."""
    try:
        schedule, verdict = simulate(instance, name)
        return repr(dense(schedule)), repr(verdict), run_feasibility([instance], name)
    except ContractError as exc:
        return "error", type(exc).__name__, str(exc)


def reference_run_outcome(instance, policy):
    """`run_outcome` of the run that calls `policy` at each busy slot (`busy_slot_run`)."""
    try:
        schedule, verdict = busy_slot_run(instance, policy)
        flag = busy_slot_run(instance, policy, stop_at_miss=True)[1].feasible
        return repr(schedule), repr(verdict), [flag]
    except ContractError as exc:
        return "error", type(exc).__name__, str(exc)


def random_policy_state(rng: random.Random):
    """(state, instance, t, kind): one slot with up to 40 active sessions,
    some finished, some of them sharing an id, a few inactive; a peak rate of 0 or NaN now and
    then; a power of 0, NaN, or one that the caps exceed, just fit or leave
    room under."""
    t = rng.randint(0, 4)
    sessions, remaining = [], {}
    for k in range(rng.randint(1, 40)):
        sid = f"s{rng.randrange(k)}" if k and rng.random() < 0.1 else f"s{k}"
        arrival = rng.randint(0, t)
        departure = t + rng.randint(1, 12)
        if rng.random() < 0.05:  # not yet arrived or already gone
            arrival, departure = rng.choice([(t + 1, t + 3), (0, t)])
        max_rate = rng.choice([0.0, math.nan]) if rng.random() < 0.01 else rng.uniform(0.05, 5.0)
        energy = rng.uniform(1e-3, 30.0)
        sessions.append(ChargingSession(sid, arrival, departure, energy, max_rate))
        remaining.setdefault(sid, rng.choice([
            0.0, 1e-13, energy, energy * rng.random(), energy * rng.random(),
            (max_rate * rng.randint(1, 4)) if math.isfinite(max_rate) else energy]))
    state = SimState(t, remaining)
    probe = Instance(sessions, ConstantPower(0.0), t + 13)
    fitted = sum(c for c in full_scan_chargeable(state, probe, t)[1] if not math.isnan(c))
    kind = rng.choice(["contended", "contended", "fit", "room", "zero", "nan"])
    power = {"contended": fitted * rng.uniform(0.0, 0.999), "fit": fitted,
             "room": fitted + rng.uniform(1e-9, 10.0), "zero": 0.0, "nan": math.nan}[kind]
    if rng.random() < 0.5:
        powers = [rng.uniform(0.0, 10.0) for _ in range(t + 13)]
        powers[t] = power
        return state, Instance(sessions, StepwisePower(powers), t + 13), t, kind
    return state, Instance(sessions, ConstantPower(power), t + 13), t, kind


def random_run(rng: random.Random):
    """A run instance with up to 40 sessions: overlapping sojourns, now and
    then a repeated id, and constant or stepwise power, sometimes too little."""
    sessions = []
    for k in range(rng.randint(1, 40)):
        sid = f"s{rng.randrange(k)}" if k and rng.random() < 0.05 else f"s{k}"
        a = rng.randint(0, 20)
        d = a + rng.randint(1, 12)
        r_bar = rng.uniform(0.2, 3.0)
        sessions.append(ChargingSession(sid, a, d, r_bar * (d - a) * rng.uniform(0.05, 1.0),
                                        r_bar))
    horizon = max(s.departure for s in sessions) + rng.randint(0, 3)
    scale = rng.uniform(0.2, 1.5) * sum(s.max_rate for s in sessions) / 3
    if rng.random() < 0.5:
        power = StepwisePower([0.0 if rng.random() < 0.1 else rng.uniform(0.3, 1.0) * scale
                               for _ in range(horizon)])
    else:
        power = ConstantPower(scale)
    return Instance(tuple(sessions), power, horizon)


class TestFrozenReference:
    def test_decisions_equal_the_reference_float_for_float(self):
        rng = random.Random(240)
        seen = Counter()
        for _ in range(1500):
            state, inst, t, kind = random_policy_state(rng)
            active = [s for s in inst.sessions if s.arrival <= t < s.departure]
            chargeable = full_scan_chargeable(state, inst, t)[0]
            seen[kind] += 1
            seen["repeated id"] += len({s.id for s in active}) < len(active)
            seen["finished"] += len(chargeable) < len(active)
            seen["many"] += len(chargeable) >= 25
            for name, reference in REFERENCE_POLICIES.items():
                expected = outcome(reference, state, inst, t)
                assert outcome(POLICIES[name], state, inst, t) == expected, (name, t, kind)
                seen["error" if expected[0] == "error" else
                     "uncontended" if expected[1] == "inf" else "decided"] += 1
        assert min(seen.values()) >= 10, seen
        assert seen["uncontended"] >= 1000 and seen["error"] >= 10, seen

    def test_peak_rate_zero_names_the_session(self):
        sessions = (ChargingSession("a", 0, 4, 2.0, 1.0), ChargingSession("b", 0, 4, 2.0, 0.0))
        inst = Instance(sessions, ConstantPower(0.5))
        state = SimState(1, {"a": 2.0, "b": 1.0})
        for name in ("sllf", "llf"):
            expected = outcome(REFERENCE_POLICIES[name], state, inst, 1)
            assert expected == ("error", "ContractError",
                                "session b has peak rate 0 at slot 1: its laxity is undefined")
            assert outcome(POLICIES[name], state, inst, 1) == expected

    def test_runs_equal_runs_of_the_reference(self):
        rng = random.Random(241)
        for _ in range(150):
            inst = random_run(rng)
            for name, reference in REFERENCE_POLICIES.items():
                expected = reference_run_outcome(inst, reference)
                assert run_outcome(inst, name) == expected, name


def kernel_outcome(kernel, *args):
    """(fill order, rates, threshold, solver steps) as one repr, or the error message."""
    try:
        return repr(kernel(*args))
    except ContractError as exc:
        return "error", type(exc).__name__, str(exc)


def tied_llf_slot(rng: random.Random):
    """LLF's kernel inputs at a contended slot t whose laxities tie exactly:
    each remaining energy a whole number of peak rates of 0.5, 1 or 2, so
    each laxity is a whole number, with arrivals and ids in unrelated
    orders, and now and then a repeated id or a NaN or infinite laxity."""
    t, sessions, rems = rng.randint(0, 5), [], []
    for k in range(rng.randint(1, 12)):
        rate = rng.choice([0.5, 1.0, 2.0])
        rem = rate * rng.randint(1, 4)
        sid = f"s{rng.randrange(k)}" if k and rng.random() < 0.1 else f"s{rng.randrange(100)}"
        sessions.append(ChargingSession(sid, rng.randint(0, t), t + rng.randint(4, 8), rem, rate))
        rems.append(rem)
    if rng.random() < 0.15:
        rems[rng.randrange(len(rems))] = rng.choice([math.nan, math.inf])
    cells = _cells(sessions, range(len(sessions)))
    caps = [rem if rem < s.max_rate else s.max_rate for s, rem in zip(sessions, rems)]
    return cells, caps, rems, t, rng.uniform(0.0, 1.0) * sum(caps)


def tied_proportional_slot(rng: random.Random):
    """ES or REP's kernel inputs (caps, weights, power) at a contended slot
    whose breakpoint ends cap / w tie: ES's equal weights, or unequal ones
    whose caps are a few common ends times the weight; now and then a
    single session, an end at or below 0, or a NaN or infinite cap or
    weight."""
    n = 1 if rng.random() < 0.1 else rng.randint(2, 12)
    equal = rng.random() < 0.3
    weights = [1.0 if equal else rng.uniform(0.1, 3.0) for _ in range(n)]
    targets = [rng.uniform(0.5, 4.0) for _ in range(3)]
    caps = [w * rng.choice(targets) if rng.random() < 0.8 else rng.uniform(0.1, 4.0)
            for w in weights]
    if rng.random() < 0.2:
        k = rng.randrange(n)
        caps[k] = rng.choice([0.0, -0.0, -1.0, math.nan, math.inf])
    if rng.random() < 0.1:
        weights[rng.randrange(n)] = rng.choice([math.nan, math.inf, -1.0])
    power = rng.choice([rng.uniform(0.0, 1.0) * sum(c for c in caps if c > 0.0),
                        rng.uniform(0.0, 10.0), 0.0, math.nan, math.inf])
    return caps, weights, power


class TestFrozenSortKernels:
    """LLF's kernel and ES and REP's against their frozen tuple sorts, on
    slots built to tie and on inputs that must take the tuple sorts."""

    def test_llf_ties_are_broken_by_arrival_and_id(self):
        rng = random.Random(342)
        seen = Counter()
        for _ in range(3000):
            cells, caps, rems, t, p_limit = tied_llf_slot(rng)
            expected = kernel_outcome(llf_kernel, cells, caps, rems, t, p_limit)
            assert kernel_outcome(schedulers._llf, cells, caps, rems, t, p_limit) == expected
            lax = [cell[5].departure - t - rem / cell[1] for cell, rem in zip(cells, rems)]
            seen["tie"] += len(set(lax)) < len(lax)
            seen["tie by arrival"] += any(
                x == y and a.arrival != b.arrival and (a.arrival < b.arrival) != (a.id < b.id)
                for x, (*_, a) in zip(lax, cells) for y, (*_, b) in zip(lax, cells))
            seen["not finite"] += not all(map(math.isfinite, lax))
        assert min(seen.values()) >= 300, seen

    def test_proportional_fill_ties_and_fallbacks(self, monkeypatch):
        rng = random.Random(343)
        seen, tuple_sorts = Counter(), []
        water_level = schedulers._water_level
        monkeypatch.setattr(schedulers, "_water_level",
                            lambda *args: tuple_sorts.append(1) or water_level(*args))
        for _ in range(3000):
            caps, weights, p_limit = tied_proportional_slot(rng)
            expected = kernel_outcome(proportional_fill_kernel, caps, weights, p_limit)
            del tuple_sorts[:]
            assert kernel_outcome(schedulers._proportional_fill, caps, weights,
                                  p_limit) == expected, (caps, weights, p_limit)
            ends = [0.0 + cap / w for w, cap in zip(weights, caps)]
            usual = all(map(math.isfinite, weights + ends)) and min(weights + ends) > 0.0
            assert not tuple_sorts if usual or not p_limit > 0.0 else tuple_sorts
            tied = len(set(ends)) < len(ends)
            seen["tie"] += usual and tied and len(set(weights)) > 1
            seen["equal weights"] += usual and tied and len(set(weights)) == 1
            seen["single"] += len(caps) == 1
            seen["tuple sort"] += bool(tuple_sorts)
        assert min(seen.values()) >= 150, seen

    def test_a_peak_rate_of_0_is_named_on_either_path(self):
        sessions = [ChargingSession("a", 0, 4, 2.0, 1.0), ChargingSession("b", 0, 4, 2.0, 0.0)]
        cells = _cells(sessions, range(2))
        for rems in ([2.0, 1.0], [math.nan, 1.0]):
            expected = kernel_outcome(llf_kernel, cells, [1.0, 0.0], rems, 1, 0.5)
            assert expected == ("error", "ContractError",
                                "session b has peak rate 0 at slot 1: its laxity is undefined")
            assert kernel_outcome(schedulers._llf, cells, [1.0, 0.0], rems, 1, 0.5) == expected


@pytest.mark.parametrize("name", sorted(REFERENCE_POLICIES))
@pytest.mark.parametrize("entry", ["simulate", "run_feasibility"])
def test_negative_power_is_named(name, entry):
    inst = Instance((ChargingSession("a", 0, 3, 1.0, 1.0),), StepwisePower([1.0, -1.0, 1.0]))
    run = {"simulate": lambda: simulate(inst, name),
           "run_feasibility": lambda: run_feasibility([inst], name)}[entry]
    with pytest.raises(ContractError) as raised:
        run()
    assert type(raised.value) is ContractError
    assert str(raised.value) == "negative station power P(1) = -1.0 at slot 1"


def olp_outcome(policy, state, instance, t):
    """(decision or None, `outcome` of it without `solver_steps`, its `solver_steps`)."""
    try:
        d = policy(state, instance, t)
    except ContractError as exc:
        return None, ("error", type(exc).__name__, str(exc)), None
    diagnostics = dict(d.diagnostics)
    steps = diagnostics.pop("solver_steps", None)
    return d, (repr(d.rates), repr(d.threshold), repr(diagnostics)), steps


def assert_same_olp_decision(state, frozen_state, instance, t, seen):
    """OLP at `state` decides as the frozen OLP at `frozen_state`, which holds
    the same slot and energies and a run memory of its own, float for float,
    with at most one search fewer; returns the frozen decision."""
    decision, got, steps = olp_outcome(POLICIES["olp"], state, instance, t)
    expected, want, want_steps = olp_outcome(frozen_olp_rates, frozen_state, instance, t)
    assert got == want, t
    if want_steps is None or decision.diagnostics.get("olp_fallback"):
        assert steps == want_steps, t  # sLLF's, on a fallback
    else:
        assert steps in (want_steps, want_steps - 1), (t, steps, want_steps)
        seen["one search fewer" if steps < want_steps else "as many searches"] += 1
    diagnostics = decision.diagnostics if decision is not None else {}
    seen["error" if decision is None else "followed" if "olp_plan_slot" in diagnostics
         else diagnostics.get("olp_unsolved", "fallback") if "olp_fallback" in diagnostics
         else "solved" if decision.rates else "none chargeable"] += 1
    return expected


def random_olp_state(rng: random.Random):
    """(state, instance, t): `random_policy_state`, with each finite remaining
    energy cut for about half the states to a part of what its first
    session's peak rate can ship by that session's departure."""
    state, inst, t, _ = random_policy_state(rng)
    remaining = dict(state.remaining)
    if rng.random() < 0.5:
        for s in reversed(inst.sessions):  # an id's first session is cut last
            if math.isfinite(s.max_rate) and math.isfinite(remaining[s.id]):
                reach = s.max_rate * max(s.departure - t, 0)
                remaining[s.id] = min(remaining[s.id], reach * rng.uniform(0.1, 1.0))
    return SimState(t, remaining), inst, t


def random_olp_run(rng: random.Random):
    """`random_run` with about one session in four demanding its peak rate
    times its sojourn, plus a hair 0.5e-12 or 3e-12 of it that the run leaves
    within or beyond `FINISHED_EPS` of its energy."""
    inst = random_run(rng)
    sessions = []
    for s in inst.sessions:
        if rng.random() < 0.25:
            whole = s.max_rate * (s.departure - s.arrival)
            s = ChargingSession(s.id, s.arrival, s.departure,
                                whole * (1.0 + rng.choice([0.5e-12, 3e-12])), s.max_rate)
        sessions.append(s)
    return Instance(tuple(sessions), inst.power, inst.horizon)


class TestFrozenOlp:
    def test_decisions_equal_the_frozen_ones_float_for_float(self):
        # without run memory every decision is a solve or a fallback
        rng = random.Random(242)
        seen = Counter()
        for _ in range(400):
            state, inst, t = random_olp_state(rng)
            assert_same_olp_decision(SimState(t, dict(state.remaining)),
                                     SimState(t, dict(state.remaining)), inst, t, seen)
        assert min(seen[k] for k in ("solved", "fallback", "as many searches")) >= 100, seen
        assert seen["error"] >= 5 and seen["one search fewer"] >= 1, seen

    def test_decisions_along_runs_equal_the_frozen_ones(self):
        # each run follows the frozen decisions slot by slot, and each side
        # keeps its own run memory: plans followed, failed residuals skipped
        rng = random.Random(243)
        seen = Counter()
        for _ in range(150):
            inst = random_olp_run(rng)
            remaining, memory, frozen_memory = initial_state(inst).remaining, {}, {}
            for t in range(inst.horizon):
                decision = assert_same_olp_decision(
                    SimState(t, dict(remaining), memory),
                    SimState(t, dict(remaining), frozen_memory), inst, t, seen)
                assert memory == frozen_memory, t  # the same plan or failed residual
                if decision is None:
                    break
                try:
                    remaining = step(SimState(t, remaining), decision.rates, inst).remaining
                except ContractError:
                    break
        kinds = ("followed", "solved", "fallback", "skipped", "checked", "one search fewer",
                 "as many searches")
        assert min(seen[k] for k in kinds) >= 10, seen

    def test_runs_equal_slot_by_slot_runs_of_the_frozen_olp(self):
        # the frozen OLP is asked at every busy slot
        rng = random.Random(244)
        seen = Counter()
        for _ in range(150):
            inst = random_olp_run(rng)
            ids = [s.id for s in inst.sessions]
            seen["repeated id"] += len(set(ids)) < len(ids)
            seen["stepwise"] += isinstance(inst.power, StepwisePower)
            fallbacks = []

            def frozen(state, i, t):
                decision = frozen_olp_rates(state, i, t)
                fallbacks.append("olp_fallback" in decision.diagnostics)
                return decision

            expected = reference_run_outcome(inst, frozen)
            seen["fallback"] += any(fallbacks)
            assert run_outcome(inst, "olp") == expected
            if expected[0] != "error":
                unmet = simulate(inst, "olp")[1].unmet_energy
                seen["finished within eps"] += any(
                    0.0 < unmet[s.id] <= FINISHED_EPS * max(1.0, s.energy) for s in inst.sessions)
        assert min(seen.values()) >= 10, seen
