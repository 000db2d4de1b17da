"""The input rule: every run and oracle entry point takes only instances that
`validate` accepts and raises a `ContractError` naming the first `Violation`
of any other; `validate` checks each instance once, and `augment` hands its
source's accepted result and, under a constant power, its event index on to
the scaled instance."""
import math
import random
import re
import sys

import pytest

from evcs import cli, corpus, dynamics, feasibility, model, schedulers, simulator
from evcs.augmentation import AugmentationMode, augment, min_feasible_eps
from evcs.dynamics import Schedule, initial_state
from evcs.model import (ChargingSession, ConstantPower, ContractError, Instance, StepwisePower,
                        validate)

#: one instance per `Violation` code, each with that code first
REJECTED = {
    "negative-horizon": Instance((), ConstantPower(1.0), -1),
    "duplicate-id": Instance((ChargingSession("a", 0, 2, 1.0, 1.0),
                              ChargingSession("a", 1, 3, 1.0, 1.0)), ConstantPower(1.0)),
    "empty-sojourn": Instance((ChargingSession("a", 2, 2, 1.0, 1.0),), ConstantPower(1.0), 3),
    "window-out-of-range": Instance((ChargingSession("a", -1, 2, 1.0, 1.0),),
                                    ConstantPower(1.0)),
    "non-finite": Instance((ChargingSession("a", 0, 2, math.nan, 1.0),), ConstantPower(1.0)),
    "nonpositive-energy": Instance((ChargingSession("a", 0, 2, 0.0, 1.0),), ConstantPower(1.0)),
    "nonpositive-rate-cap": Instance((ChargingSession("a", 0, 2, 1.0, 0.0),),
                                     ConstantPower(1.0)),
    "individually-unsatisfiable": Instance((ChargingSession("a", 0, 2, 3.0, 1.0),),
                                           ConstantPower(1.0)),
    "negative-power": Instance((ChargingSession("a", 1, 2, 1.0, 1.0),),
                               StepwisePower([-1.0, 1.0])),
    "power-profile-short": Instance((ChargingSession("a", 0, 3, 1.0, 1.0),),
                                    StepwisePower([1.0]), 3),
}

#: each run and oracle entry point, called on one instance
ENTRY_POINTS = {
    "simulate": lambda inst: [simulator.simulate(inst, p) for p in schedulers.KERNELS],
    "run_feasibility": lambda inst: [simulator.run_feasibility([inst], p)
                                     for p in schedulers.KERNELS],
    "success_rate": lambda inst: simulator.success_rate([inst], "sllf"),
    "min_feasible_eps": lambda inst: [min_feasible_eps([inst], "sllf", mode)
                                      for mode in AugmentationMode],
    "separation_witness": lambda inst: simulator.separation_witness([inst]),
    "instance_metrics": simulator.instance_metrics,
    "binned_success_rates": lambda inst: simulator.binned_success_rates([inst], [True], 0, 1),
    "decide": lambda inst: [schedulers.decide(p, initial_state(inst), inst, 0)
                            for p in schedulers.KERNELS],
    "step": lambda inst: dynamics.step(initial_state(inst), {}, inst),
    "offline_feasible": feasibility.offline_feasible,
    "is_offline_feasible": feasibility.is_offline_feasible,
    "min_power_capacity": feasibility.min_power_capacity,
    "validate_schedule": lambda inst: feasibility.validate_schedule(inst, Schedule(0, {})),
}


def violation_codes() -> set[str]:
    """The codes `model` can report, read from its source."""
    with open(model.__file__, encoding="utf-8") as fh:
        return set(re.findall(r'Violation\("([a-z-]+)"', fh.read()))


def test_one_rejected_instance_per_code():
    assert set(REJECTED) == violation_codes()
    for code, inst in REJECTED.items():
        assert validate(inst)[0].code == code


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("code", sorted(REJECTED))
def test_entry_points_name_the_first_violation(code, entry):
    inst = REJECTED[code]
    with pytest.raises(ContractError) as raised:
        ENTRY_POINTS[entry](inst)
    assert type(raised.value) is ContractError
    assert str(raised.value) == f"invalid instance: {validate(inst)[0]}"


def valid_instance() -> Instance:
    return Instance((ChargingSession("a", 0, 3, 2.0, 1.0), ChargingSession("b", 1, 4, 2.5, 1.0)),
                    ConstantPower(1.5))


def counting_checks(monkeypatch) -> list:
    """The instances `validate` checks afresh, in order."""
    checked, check = [], model._violations
    monkeypatch.setattr(model, "_violations", lambda inst: checked.append(inst) or check(inst))
    return checked


class TestCheckedOnce:
    def test_every_entry_point_reads_one_check(self, monkeypatch):
        checked = counting_checks(monkeypatch)
        inst, rejected = valid_instance(), Instance(REJECTED["duplicate-id"].sessions,
                                                    ConstantPower(1.0))
        for _ in range(2):
            for entry in ENTRY_POINTS.values():
                if entry is not ENTRY_POINTS["validate_schedule"]:
                    entry(inst)
                with pytest.raises(ContractError):
                    entry(rejected)
            feasibility.validate_schedule(inst, simulator.simulate(inst, "edf")[0])
            dynamics.step(initial_state(inst), {"a": 1.0}, inst)
            assert validate(inst) == [] and validate(rejected)
        # each instance once; after the two, only the rejected source's first
        # probes of an epsilon search, each a new instance
        assert checked[0] is inst and checked[1] is rejected
        assert len({id(c) for c in checked}) == len(checked) == 4
        assert all(c.sessions == rejected.sessions for c in checked[2:])

    def test_a_kept_result_is_a_copy(self):
        inst = REJECTED["negative-power"]
        validate(inst).clear()
        assert [v.code for v in validate(inst)] == ["negative-power"]

    @pytest.mark.parametrize("mode", list(AugmentationMode))
    def test_no_constant_power_probe_is_checked_again(self, monkeypatch, mode,
                                                      reference_corpus):
        instances = [Instance(i.sessions, i.power, i.horizon) for i in reference_corpus[:20]]
        checked = counting_checks(monkeypatch)
        for policy in ("sllf", "edf"):
            assert math.isfinite(min_feasible_eps(instances, policy, mode))
        assert checked == instances

    def test_the_cli_checks_each_file_once(self, monkeypatch, tmp_path, capsys):
        for k, inst in enumerate([valid_instance(), REJECTED["empty-sojourn"]]):
            corpus.write_instance(inst, tmp_path / f"i{k}.evcs")
        checked = counting_checks(monkeypatch)
        assert cli.main(["run", str(tmp_path / "i0.evcs"), "--alg", "olp"]) == 0
        assert cli.main(["augment", str(tmp_path), "--algs", "sllf", "--mode", "power"]) == 2
        assert "i1.evcs: invalid instance: empty-sojourn (a)" in capsys.readouterr().err
        assert len(checked) == 3


def random_scaled_case(rng: random.Random):
    """(instance, eps): a valid instance and an augmentation in [0, 64].  In
    about a third of the instances the largest power times the horizon, and
    in another third a peak rate times its sojourn, lies near the float's
    top, so that eps often overflows it, and eps is then often drawn next to
    the factor at which it does."""
    horizon = rng.randint(1, 12)
    kind = rng.choice(["plain", "power", "rate"])
    sessions = []
    for k in range(rng.randint(0, 5)):
        arrival = rng.randrange(horizon)
        departure = rng.randint(arrival + 1, horizon)
        max_rate = rng.uniform(0.1, 3.0)
        if kind == "rate" and k == 0:
            max_rate = sys.float_info.max / (departure - arrival) / rng.uniform(1.01, 64.0)
        energy = min(rng.uniform(0.1, 2.0), max_rate * (departure - arrival))
        sessions.append(ChargingSession(f"s{k}", arrival, departure, energy, max_rate))
    top = rng.uniform(0.0, 5.0)
    if kind == "power":
        top = sys.float_info.max / horizon / rng.uniform(1.01, 64.0)
    if rng.random() < 0.5:
        power = ConstantPower(top)
    else:
        power = StepwisePower([rng.uniform(0.0, top) for _ in range(horizon - 1)] + [top]
                              + [top * 2.0] * rng.randint(0, 2))
    inst = Instance(sessions, power, horizon)
    eps = rng.uniform(0.0, 64.0)
    if kind == "power" and rng.random() < 0.5:
        eps = sys.float_info.max / (top * horizon) - 1.0
    elif kind == "rate" and sessions and rng.random() < 0.5:
        eps = sys.float_info.max / (sessions[0].max_rate * sessions[0].sojourn) - 1.0
    if rng.random() < 0.3:
        eps = math.nextafter(eps, rng.choice([0.0, 64.0]))
    return inst, min(max(eps, 0.0), 64.0)


class TestAugmentCarries:
    def test_the_accepted_result_where_validate_accepts_the_scaled_instance(self):
        rng, seen = random.Random(410), {"carried": 0, "overflows": 0}
        for _ in range(3000):
            inst, eps = random_scaled_case(rng)
            assert validate(inst) == []
            for mode in AugmentationMode:
                scaled = augment(inst, mode, eps)
                fresh = model._violations(scaled)
                carried = scaled.__dict__.get("_violations")
                assert carried == (() if fresh == [] else None), (inst, mode, eps, fresh)
                seen["carried"] += carried is not None
                seen["overflows"] += any(v.code == "non-finite" for v in fresh)
        assert min(seen.values()) >= 500, seen

    def test_nothing_from_a_rejected_source(self):
        # a peak rate scaled up can meet a demand the source could not
        inst = REJECTED["individually-unsatisfiable"]
        scaled = augment(inst, AugmentationMode.POWER_AND_RATE, 1.0)
        assert "_violations" not in scaled.__dict__ and validate(scaled) == []
        assert "_violations" not in augment(inst, AugmentationMode.POWER, 1.0).__dict__

    def test_the_event_index_under_a_constant_power(self):
        rng, carried = random.Random(411), 0
        for _ in range(2000):
            inst, eps = random_scaled_case(rng)
            for mode in AugmentationMode:
                scaled = augment(inst, mode, eps)
                kept = scaled.__dict__.get("_event_index")
                assert "_active_sets" not in scaled.__dict__
                assert "_interval_network" not in scaled.__dict__
                if isinstance(inst.power, StepwisePower):
                    assert kept is None
                    continue
                fresh = Instance(scaled.sessions, scaled.power, scaled.horizon)._events()
                assert kept == fresh, (inst, mode, eps)
                assert scaled.active_at(scaled.horizon - 1) == fresh_active(scaled)
                carried += 1
        assert carried >= 1500, carried


def fresh_active(instance: Instance) -> tuple:
    t = instance.horizon - 1
    return tuple(s for s in instance.sessions if s.arrival <= t < s.departure)
