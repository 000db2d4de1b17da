import math
import random
import warnings

import pytest

from evcs import augmentation, simulator
from evcs.augmentation import (EPS_TOL, AugmentationMode, BoundInputs, augment,
                               corpus_bound_inputs, min_feasible_eps,
                               theorem1_bound, theorem2_bound)
from evcs.model import (ChargingSession, ConstantPower, ContractError, Instance,
                        StepwisePower)

from eps_oracle import corpus_bisection_eps


def tight_ev(power=0.5):
    return Instance((ChargingSession("a", 0, 2, 2.0, 1.0),), ConstantPower(power))


class TestAugment:
    def test_power_mode_scales_profile_only(self, instance_ia):
        out = augment(instance_ia, AugmentationMode.POWER, 0.5)
        assert out.power.power == pytest.approx(1.5)
        assert out.sessions == instance_ia.sessions
        assert out.horizon == instance_ia.horizon

    def test_power_and_rate_mode_scales_both(self, instance_ia):
        out = augment(instance_ia, AugmentationMode.POWER_AND_RATE, 1.0)
        assert out.power.power == pytest.approx(2.0)
        assert all(s.max_rate == pytest.approx(2.0) for s in out.sessions)
        # demands and windows are untouched
        assert [s.energy for s in out.sessions] == [0.75, 1.25]

    def test_zero_eps_is_identity(self, instance_ia):
        out = augment(instance_ia, AugmentationMode.POWER, 0.0)
        assert out.power.power == instance_ia.power.power
        assert out.sessions == instance_ia.sessions

    def test_stepwise_profile(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 1.0),),
                        StepwisePower([1.0, 2.0]))
        out = augment(inst, AugmentationMode.POWER, 1.0)
        assert out.power.values == (2.0, 4.0)

    def test_negative_eps_rejected(self, instance_ia):
        with pytest.raises(ContractError):
            augment(instance_ia, AugmentationMode.POWER, -0.1)


class TestMinFeasibleEps:
    def test_empty_corpus(self):
        assert min_feasible_eps([], "sllf", AugmentationMode.POWER) == 0.0

    def test_already_feasible(self, instance_ia):
        assert min_feasible_eps([instance_ia], "sllf", AugmentationMode.POWER) == 0.0

    def test_known_doubling_point(self):
        # one EV needs rate 1 in both slots; at P = 0.5 exactly eps = 1 fixes it
        eps = min_feasible_eps([tight_ev()], "sllf", AugmentationMode.POWER)
        assert eps == pytest.approx(1.0, abs=2 * EPS_TOL)

    def test_result_is_feasible_boundary(self):
        from evcs.simulator import simulate
        eps = min_feasible_eps([tight_ev()], "sllf", AugmentationMode.POWER)
        inst = augment(tight_ev(), AugmentationMode.POWER, eps)
        assert simulate(inst, "sllf")[1].feasible

    def test_unfixable_instance_reports_infinity(self):
        # power scaling cannot help a session whose rate cap is the binding limit
        hopeless = Instance((ChargingSession("a", 0, 2, 2.0, 0.5),), ConstantPower(1.0))
        assert min_feasible_eps([hopeless], "sllf", AugmentationMode.POWER) == math.inf


@pytest.fixture(scope="module")
def flags_at_zero(reference_corpus):
    return {p: simulator.run_feasibility(reference_corpus, p) for p in ("sllf", "edf", "es")}


class TestPerInstanceSearch:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", list(AugmentationMode))
    @pytest.mark.parametrize("policy", ["sllf", "edf", "es"])
    def test_equals_corpus_bisection(self, reference_corpus, flags_at_zero, policy, mode, seed):
        # 4 instances the policy fails at eps = 0 and 8 it completes, so eps > 0
        rng = random.Random(seed)
        flags = flags_at_zero[policy]
        sample = rng.sample([i for i, ok in zip(reference_corpus, flags) if not ok], 4) + \
            rng.sample([i for i, ok in zip(reference_corpus, flags) if ok], 8)
        eps = min_feasible_eps(sample, policy, mode)
        assert eps > 0.0
        assert eps == corpus_bisection_eps(sample, policy, mode)

    @staticmethod
    def patch_table(monkeypatch, table):
        """Instances are names; feasibility is table[name](eps)."""
        monkeypatch.setattr(augmentation, "augment", lambda inst, mode, eps: (inst, eps))
        monkeypatch.setattr(augmentation, "run_feasibility",
                            lambda insts, policy: [table[name](eps) for name, eps in insts])

    #: "a" is searched first and ends at 0.25; it has a gap [3, 3.5) where "b"
    #: first becomes feasible, so one pass would stop at 3.0 with "a" infeasible
    ISLAND = {"a": lambda e: e >= 0.25 and not 3.0 <= e < 3.5, "b": lambda e: e >= 3.0}

    @pytest.mark.filterwarnings("ignore:non-monotone island")
    def test_result_feasible_on_every_instance(self, monkeypatch):
        self.patch_table(monkeypatch, self.ISLAND)
        eps = min_feasible_eps(["a", "b"], "sllf", AugmentationMode.POWER)
        assert eps == 3.5
        assert self.ISLAND["a"](eps) and self.ISLAND["b"](eps)

    def test_island_is_reported(self, monkeypatch):
        self.patch_table(monkeypatch, self.ISLAND)
        with pytest.warns(UserWarning, match=r"^non-monotone island: instance 0 is feasible "
                          r"at eps = 0\.25 but infeasible at eps = 3\.4990234375$"):
            min_feasible_eps(["a", "b"], "sllf", AugmentationMode.POWER)

    def test_monotone_table_warns_nothing(self, monkeypatch):
        self.patch_table(monkeypatch, {"a": lambda e: e >= 0.25, "b": lambda e: e >= 3.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert min_feasible_eps(["a", "b"], "sllf", AugmentationMode.POWER) == 3.0

    def test_non_monotone_warning_kept(self, monkeypatch):
        below = 1.0 - 2.0 * EPS_TOL
        table = {"a": lambda e: e >= 1.0 or e == below, "b": lambda e: e >= 0.5}
        self.patch_table(monkeypatch, table)
        with pytest.warns(UserWarning, match="not monotone"):
            assert min_feasible_eps(["a", "b"], "sllf", AugmentationMode.POWER) == 1.0

    def test_simulation_count(self, reference_corpus, monkeypatch):
        calls = []
        simulate = simulator.simulate
        monkeypatch.setattr(simulator, "simulate",
                            lambda *args: calls.append(1) or simulate(*args))
        eps = min_feasible_eps(reference_corpus, "sllf", AugmentationMode.POWER)
        assert eps > 0.0
        # a bisection of the whole corpus makes 17 probes of 300 instances: 5,100
        assert len(calls) <= 1000


class TestTheorem1Bound:
    def test_pinned_equal_power_value(self):
        # N = X / P_max with a flat profile pins the closed form near 3.09
        inputs = BoundInputs(max_demand=4.0, min_arrival_gap=4.0, p_min=1.0, p_max=1.0)
        assert theorem1_bound(inputs) == pytest.approx(3.0916, abs=1e-3)

    def test_grows_with_power_spread(self):
        flat = BoundInputs(2.0, 2.0, 1.0, 1.0)
        spread = BoundInputs(2.0, 2.0, 0.5, 1.0)
        assert theorem1_bound(spread) > theorem1_bound(flat)

    def test_shrinks_with_wider_gaps(self):
        tight = BoundInputs(4.0, 2.0, 1.0, 1.0)
        loose = BoundInputs(4.0, 8.0, 1.0, 1.0)
        assert theorem1_bound(loose) < theorem1_bound(tight)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ContractError):
            BoundInputs(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ContractError):
            BoundInputs(1.0, 0.5, 1.0, 1.0)
        with pytest.raises(ContractError):
            BoundInputs(1.0, 1.0, 2.0, 1.0)


class TestTheorem2Bound:
    def test_zero_when_rate_cap_equals_constant_power(self):
        inst = Instance((ChargingSession("a", 0, 3, 1.0, 2.0),), ConstantPower(2.0))
        assert theorem2_bound(inst) == pytest.approx(0.0, abs=1e-12)

    def test_stepwise_window(self):
        inst = Instance((ChargingSession("a", 0, 2, 0.5, 0.5),), StepwisePower([1.0, 2.0]))
        # spread 2/1, worst rate share 0.5/1
        assert theorem2_bound(inst) == pytest.approx(1.5)

    def test_can_be_negative(self):
        inst = Instance((ChargingSession("a", 0, 2, 1.0, 2.0),), ConstantPower(1.0))
        assert theorem2_bound(inst) == pytest.approx(-1.0)

    def test_worst_session_wins(self):
        inst = Instance((ChargingSession("a", 0, 2, 0.5, 2.0),
                         ChargingSession("b", 0, 2, 0.5, 0.25)), ConstantPower(1.0))
        assert theorem2_bound(inst) == pytest.approx(1.0 - 0.25)

    def test_zero_power_in_window_rejected(self):
        inst = Instance((ChargingSession("a", 0, 2, 0.5, 0.5),), StepwisePower([1.0, 0.0]))
        with pytest.raises(ContractError):
            theorem2_bound(inst)


class TestCorpusBoundInputs:
    def test_extracts_extremes(self):
        a = Instance((ChargingSession("x", 0, 10, 3.0, 1.0),
                      ChargingSession("y", 6, 12, 1.0, 1.0)), ConstantPower(2.0))
        b = Instance((ChargingSession("x", 0, 9, 2.0, 1.0),
                      ChargingSession("y", 4, 9, 1.5, 1.0)), StepwisePower([1.0] * 9))
        inputs = corpus_bound_inputs([a, b])
        assert inputs.max_demand == 3.0
        # smallest inter-arrival spacing is 4 slots; the strict gap is one less
        assert inputs.min_arrival_gap == 3
        assert inputs.p_min == 1.0
        assert inputs.p_max == 2.0

    def test_spaced_corpus_matches_declared_floor(self, spaced_corpus):
        inputs = corpus_bound_inputs(spaced_corpus)
        assert inputs.min_arrival_gap >= 4
