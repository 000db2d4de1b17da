"""`generate`, its sampler and `min_power_capacity` against the frozen copies
in `gen_oracle`, bit for bit: equal `repr`s, or the same error and message.

A `repr` is compared by its digest, which keeps a failure's report short.
"""
import hashlib
import math
import random

import pytest

from evcs import corpus, feasibility
from evcs.corpus import CorpusSpec, GenerationError, reference_spec, reference_spec_spaced
from evcs.model import ChargingSession, ConstantPower, Instance, StepwisePower, validate
from evcs.netflow import FlowGraph

import gen_oracle


def outcome(fn, *args):
    """Digest of the repr of what `fn(*args)` returns, or its error's type and message."""
    try:
        return hashlib.sha256(repr(fn(*args)).encode()).hexdigest()
    except Exception as exc:  # noqa: BLE001  the error is the outcome compared
        return type(exc), str(exc)


def random_spec(rng: random.Random) -> CorpusSpec:
    count = rng.choice([0, 1, 2, 49, 50, 51, rng.randint(0, 60)])
    sojourn_min = rng.choice([1.0, 2.0, 4.0, 0.5])
    sojourn_max = sojourn_min + rng.choice([0.0, 1.0, 20.0, 59.0, 200.0])
    sojourn_mean = rng.choice([sojourn_min, sojourn_max,
                               rng.uniform(sojourn_min, sojourn_max)])
    laxity_min = rng.choice([0.0, 0.0, 0.5, 3.0])
    laxity_max = laxity_min + rng.choice([0.0, 1e-6, 5.0, 55.0, 1e80])  # 1e80 overflows
    laxity_mean = rng.choice([laxity_min, laxity_max, rng.uniform(laxity_min, laxity_max),
                              laxity_min + 1e-3 * (laxity_max - laxity_min)])
    rate_min = rng.choice([0.1, 0.5, 1.0])
    return CorpusSpec(
        count=count, evs_min=(lo := rng.randint(1, 4)), evs_max=lo + rng.randint(0, 6),
        sojourn_min=sojourn_min, sojourn_mean=sojourn_mean, sojourn_max=sojourn_max,
        laxity_min=laxity_min, laxity_mean=laxity_mean, laxity_max=laxity_max,
        rate_min=rate_min, rate_max=rate_min * rng.choice([1.0, 2.0, 4.0]),
        slot_minutes=rng.choice([12.0, 30.0, 1.0, 0.0]),
        arrival_gap_floor=rng.choice([None, None, 0.0, 2.5, 4.0]),
        demand_cap=rng.choice([None, None, 1e-10, 0.3, 1.5, 50.0]),
        seed=rng.randrange(1 << 30))


class TestGenerate:
    @pytest.mark.parametrize("spec", [reference_spec(), reference_spec_spaced()],
                             ids=["reference", "spaced"])
    def test_reference_corpora(self, spec):
        assert outcome(corpus.generate, spec) == outcome(gen_oracle.generate, spec)

    def test_random_specs(self):
        rng = random.Random(2025)
        messages, refused = [], 0
        for _ in range(120):
            try:
                spec = random_spec(rng)  # every value is drawn before the spec is built
            except GenerationError as exc:  # slot_minutes 0.0, which the oracle divides by
                assert str(exc) == ("spec field 'slot_minutes' must be positive, with "
                                    "720 / slot_minutes finite, not 0.0")
                refused += 1
                continue
            got = outcome(corpus.generate, spec)
            assert got == outcome(gen_oracle.generate, spec), spec
            if isinstance(got, tuple) and got[0] is GenerationError:
                messages.append(got[1])
        assert any(m.endswith("overflow the sampler") for m in messages)
        assert "demand cap leaves no room for any session" in messages
        assert 10 <= refused <= 60, refused

    def test_refit_counts(self):
        # 49 takes the first fit; from 50 on the refit runs, and on these
        # high-laxity specs it needs more than one pass
        for count in (49, 50, 51):
            spec = CorpusSpec(count=count, laxity_mean=20.0, sojourn_mean=20.0, seed=count)
            assert outcome(corpus.generate, spec) == outcome(gen_oracle.generate, spec)

    def test_sampler_names_the_benchmark_calls(self):
        spec = CorpusSpec(count=3, evs_min=150, evs_max=200, sojourn_mean=150.0,
                          sojourn_max=720.0, laxity_mean=36.0, laxity_max=660.0, seed=11)

        def sessions(module):
            return outcome(module._sample_corpus_sessions,
                           spec, module._TruncatedLogNormal(1.0, 150.0, 720.0),
                           module._TruncatedLogNormal(1e-3, 36.0, 660.0))

        assert sessions(corpus) == sessions(gen_oracle)

    def test_truncated_log_normal_fits(self):
        rng = random.Random(7)
        triples = [(1e-3, 1e-3, 1e-3), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0 + 1e-12),
                   (1e-3, 5e-3, 1e60), (5.0, 5.0, 6.0), (5.0, 6.0, 6.0)]
        for _ in range(300):
            lo = 10 ** rng.uniform(-4, 3)
            hi = lo * 10 ** rng.choice([0.0, rng.uniform(0, 1e-9), rng.uniform(0, 8)])
            triples.append((lo, rng.choice([lo, hi, rng.uniform(lo, hi)]), hi))
        for lo, mean, hi in triples:
            new, old = (outcome(lambda: vars(m._TruncatedLogNormal(lo, mean, hi)))
                        for m in (corpus, gen_oracle))
            assert new == old, (lo, mean, hi)


def random_instance(rng: random.Random) -> Instance:
    sessions = []
    for k in range(rng.randint(1, 7)):
        a = rng.randrange(0, 12)
        d = a + rng.randint(1, 10)
        rate = rng.uniform(0.2, 3.0)
        sessions.append(ChargingSession(f"s{k}", a, d, rate * (d - a) * rng.uniform(0.01, 1.0),
                                        rate))
    return Instance(sessions, ConstantPower(0.0))


class TestMinPower:
    def test_valid_instances(self):
        rng = random.Random(19)
        for _ in range(200):
            inst = random_instance(rng)
            assert not validate(inst)
            assert (outcome(feasibility.min_power_capacity, inst)
                    == outcome(gen_oracle.min_power_capacity, inst))

    def test_the_check_at_p_star_is_the_check_of_the_written_instance(self):
        # generate checks the unpowered instance with P* as an override
        rng = random.Random(23)
        for _ in range(100):
            inst = random_instance(rng)
            p_star = feasibility.min_power_capacity(inst)
            for p in (p_star, 0.999 * p_star):
                assert (feasibility.is_offline_feasible(inst, power_override=p)
                        == feasibility.is_offline_feasible(Instance(inst.sessions,
                                                                    ConstantPower(p))))

    @pytest.mark.parametrize("sessions, power", [
        ([ChargingSession("a", 0, 2, 0.0, 1.0), ChargingSession("b", 1, 3, 0.0, 2.0)],
         ConstantPower(1.0)),
        ([ChargingSession("a", 0, 4, 2.0, 1.0), ChargingSession("b", 1, 3, 1.0, 1.0)],
         StepwisePower([1.0, 2.0, 0.5, 3.0])),
        ([ChargingSession("a", 0, 4, 2.0, 1.0)], StepwisePower([1.0, 2.0])),
        ([], ConstantPower(1.0)),
        ([ChargingSession("a", 0, 2, 1e13, 1e13), ChargingSession("b", 0, 1, 1.0, 1.0)],
         ConstantPower(1.0)),
        ([ChargingSession("a", 0, 2, 3.0, 1.0)], ConstantPower(1.0)),
        ([ChargingSession("a", 0, 2, math.inf, 1.0)], ConstantPower(1.0)),
        ([ChargingSession("a", 2, 2, 1.0, 1.0)], ConstantPower(1.0)),
    ], ids=["zero-energies", "stepwise", "short-profile", "no-sessions", "huge-pair",
            "unsatisfiable", "infinite", "empty-sojourn"])
    def test_edge_instances(self, sessions, power):
        inst = Instance(sessions, power)
        assert (outcome(feasibility.min_power_capacity, inst)
                == outcome(gen_oracle.min_power_capacity, inst))

    def test_each_newton_cut_is_the_last_search_of_its_max_flow(self, monkeypatch):
        counts = {}
        levels, max_flow = FlowGraph._levels, FlowGraph.max_flow

        def counted_levels(g, *args):
            counts["searches"] += 1
            return levels(g, *args)

        def counted_max_flow(g, s, t):
            before = counts["searches"]
            flow = max_flow(g, s, t)
            counts["in_max_flow"] += counts["searches"] - before
            counts["max_flows"] += 1
            return flow

        monkeypatch.setattr(FlowGraph, "_levels", counted_levels)
        monkeypatch.setattr(FlowGraph, "max_flow", counted_max_flow)
        inst = Instance([ChargingSession("a", 0, 4, 3.0, 1.0),
                         ChargingSession("b", 1, 3, 2.0, 1.0),
                         ChargingSession("c", 2, 9, 1.0, 0.5),
                         ChargingSession("d", 5, 7, 1.8, 1.0)], ConstantPower(0.0))

        def run(min_power):
            counts.update(searches=0, in_max_flow=0, max_flows=0)
            return min_power(inst), dict(counts)

        (p_new, new), (p_old, old) = (run(feasibility.min_power_capacity),
                                      run(gen_oracle.min_power_capacity))
        assert p_new == p_old and new["max_flows"] == old["max_flows"] >= 3
        assert new["searches"] == new["in_max_flow"]
        # the frozen copy searches once more per Newton step, one per max-flow after the first
        assert old["searches"] == old["in_max_flow"] + old["max_flows"] - 1
