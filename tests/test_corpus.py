import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from evcs.corpus import (CorpusSpec, GenerationError, ParseError, generate,
                         read_instance, reference_spec, reference_spec_spaced,
                         write_instance)
from evcs.dynamics import min_laxity
from evcs.feasibility import offline_feasible, validate_schedule
from evcs.model import (ChargingSession, ConstantPower, ContractError, Instance, StepwisePower,
                        Violation, validate)
from evcs.schedulers import POLICIES
from evcs.simulator import simulate


class TestSpecValidation:
    def test_reference_specs_are_valid(self):
        reference_spec()
        reference_spec_spaced()

    def test_mean_outside_envelope(self):
        with pytest.raises(GenerationError):
            CorpusSpec(count=1, sojourn_min=5, sojourn_mean=2, sojourn_max=10)

    def test_bad_ev_range(self):
        with pytest.raises(GenerationError):
            CorpusSpec(count=1, evs_min=5, evs_max=2)

    def test_bad_rate_range(self):
        with pytest.raises(GenerationError):
            CorpusSpec(count=1, rate_min=0.0)

    def test_bad_demand_cap(self):
        with pytest.raises(GenerationError):
            CorpusSpec(count=1, demand_cap=-1.0)


class TestGenerate:
    def test_deterministic_for_fixed_seed(self):
        spec = dataclasses.replace(reference_spec(), count=10)
        assert generate(spec) == generate(spec)

    def test_seed_changes_output(self):
        spec = dataclasses.replace(reference_spec(), count=10)
        other = dataclasses.replace(spec, seed=spec.seed + 1)
        assert generate(spec) != generate(other)

    def test_reference_corpus_shape(self, reference_corpus):
        spec = reference_spec()
        assert len(reference_corpus) == spec.count
        for inst in reference_corpus:
            assert validate(inst) == []
            assert spec.evs_min <= len(inst.sessions) <= spec.evs_max
            for s in inst.sessions:
                assert spec.sojourn_min <= s.sojourn <= spec.sojourn_max
                assert spec.rate_min <= s.max_rate <= spec.rate_max
                lax = s.sojourn - s.energy / s.max_rate
                assert lax >= spec.laxity_min - 1e-9

    def test_reference_corpus_statistics(self, reference_corpus):
        spec = reference_spec()
        sessions = [s for inst in reference_corpus for s in inst.sessions]
        mean_sojourn = sum(s.sojourn for s in sessions) / len(sessions)
        mean_laxity = sum(s.sojourn - s.energy / s.max_rate for s in sessions) / len(sessions)
        assert abs(mean_sojourn - spec.sojourn_mean) <= 0.15 * spec.sojourn_mean
        assert abs(mean_laxity - spec.laxity_mean) <= 0.15 * spec.laxity_mean

    def test_all_instances_offline_feasible(self, reference_corpus):
        for inst in reference_corpus[::20]:
            assert offline_feasible(inst)[0]

    def test_spaced_corpus_respects_gap_floor_and_cap(self, spaced_corpus):
        spec = reference_spec_spaced()
        for inst in spaced_corpus:
            arrivals = sorted(s.arrival for s in inst.sessions)
            for a, b in zip(arrivals, arrivals[1:]):
                assert b - a > spec.arrival_gap_floor
            for s in inst.sessions:
                assert s.energy <= spec.demand_cap + 1e-12

    def test_empty_corpus(self):
        assert generate(dataclasses.replace(reference_spec(), count=0)) == []


class TestRoundTrip:
    def test_constant_power(self, tmp_path, instance_ia):
        path = tmp_path / "ia.evcs"
        write_instance(instance_ia, path)
        assert read_instance(path) == instance_ia

    def test_stepwise_power_and_long_horizon(self, tmp_path):
        inst = Instance((ChargingSession("a", 1, 3, 0.7, 1.5),),
                        StepwisePower([0.5, 1.0, 2.0, 0.25]), horizon=4)
        path = tmp_path / "x.evcs"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_float_fidelity(self, tmp_path):
        # 17 significant digits survive a write/read cycle bit for bit
        energy = 0.1 + 0.2
        inst = Instance((ChargingSession("a", 0, 2, energy, 1.0 / 3.0),),
                        ConstantPower(2.0 / 7.0))
        path = tmp_path / "f.evcs"
        write_instance(inst, path)
        back = read_instance(path)
        assert back.sessions[0].energy == energy
        assert back.sessions[0].max_rate == 1.0 / 3.0
        assert back.power.power == 2.0 / 7.0

    def test_corpus_sample_round_trips(self, tmp_path, reference_corpus):
        for k, inst in enumerate(reference_corpus[:5]):
            path = tmp_path / f"i{k}.evcs"
            write_instance(inst, path)
            assert read_instance(path) == inst

    def test_writes_utf8_whatever_the_locale(self, tmp_path):
        # an ASCII locale without UTF-8 mode; any open() that leaves the
        # encoding to the locale warns, and the warning is an error
        script = ("import sys; from evcs.corpus import *; from evcs.model import *; "
                  "inst = Instance([ChargingSession('\\u00e9v', 0, 2, 1.0, 1.0)], "
                  "ConstantPower(1.0)); write_instance(inst, sys.argv[1]); "
                  "assert read_instance(sys.argv[1]) == inst")
        path = tmp_path / "accent.evcs"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", script, str(path)], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert path.read_bytes().splitlines()[-1] == "év 0 2 1 1".encode()


    @pytest.mark.parametrize("sid", ["", "a b", "x\ty", "a\u2028b", "a\ud800"])
    def test_an_id_the_reader_cannot_split_is_refused_before_writing(self, tmp_path, sid):
        inst = Instance((ChargingSession(sid, 0, 2, 1.0, 1.0),), ConstantPower(1.0))
        assert validate(inst) == []
        path = tmp_path / "id.evcs"
        with pytest.raises(ContractError) as raised:
            write_instance(inst, path)
        assert repr(sid) in str(raised.value)
        assert not path.exists()

    def test_an_id_of_punctuation_round_trips(self, tmp_path):
        inst = Instance((ChargingSession("ev-1,\"q\"#é", 0, 2, 1.0, 1.0),), ConstantPower(1.0))
        path = tmp_path / "id.evcs"
        write_instance(inst, path)
        assert read_instance(path) == inst


class TestParseErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.evcs"
        path.write_text(text)
        return path

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "not-a-header\nhorizon 2\npower constant 1\n")
        with pytest.raises(ParseError, match="line 1, column 1"):
            read_instance(path)

    def test_truncated(self, tmp_path):
        path = self.write(tmp_path, "evcs-v1\nhorizon 2\n")
        with pytest.raises(ParseError, match="truncated"):
            read_instance(path)

    def test_bad_horizon(self, tmp_path):
        path = self.write(tmp_path, "evcs-v1\nhorizon two\npower constant 1\n")
        with pytest.raises(ParseError, match="line 2"):
            read_instance(path)

    def test_bad_power_kind(self, tmp_path):
        path = self.write(tmp_path, "evcs-v1\nhorizon 2\npower ramp 1 2\n")
        with pytest.raises(ParseError, match="line 3"):
            read_instance(path)

    def test_bad_session_arity(self, tmp_path):
        path = self.write(tmp_path,
                          "evcs-v1\nhorizon 2\npower constant 1\na 0 2 1.0\n")
        with pytest.raises(ParseError, match="line 4"):
            read_instance(path)

    def test_bad_session_number(self, tmp_path):
        path = self.write(tmp_path,
                          "evcs-v1\nhorizon 2\npower constant 1\na 0 x 1.0 1.0\n")
        with pytest.raises(ParseError, match="line 4, column 5: bad departure 'x'"):
            read_instance(path)

    @pytest.mark.parametrize("body, where", [
        ("horizon 2\npower constant 1\na 0 2 oops 1", "line 4, column 7: bad energy 'oops'"),
        ("horizon 2\npower constant 1\n   a    0 2.5 1 1",
         "line 4, column 11: bad departure '2.5'"),
        ("horizon 2\npower constant 1\na 0 2 1 1e", "line 4, column 9: bad max_rate '1e'"),
        ("horizon 2\npower step 1 x 1 1\na 0 2 1 1", "line 3, column 14: bad power value 'x'"),
        ("horizon 2\n  power  constant  x\na 0 2 1 1", "line 3, column 20: bad power value 'x'"),
        ("horizon 2\npower constant 1 2\na 0 2 1 1",
         "line 3, column 18: power constant takes exactly one value"),
        ("  horizon  2x\npower constant 1", "line 2, column 12: bad horizon '2x'"),
    ])
    def test_column_points_at_the_bad_token(self, tmp_path, body, where):
        path = self.write(tmp_path, f"evcs-v1\n{body}\n")
        with pytest.raises(ParseError, match=re.escape(where)):
            read_instance(path)


def _rarely(good, bad):
    """`good`, or one time in eight `bad`."""
    return st.tuples(st.integers(0, 7), good, bad).map(lambda x: x[2] if x[0] == 0 else x[1])


_int = _rarely(st.integers(-5, 40).map(str), st.sampled_from(["1.5", "x", "1_0", ""]))
_good_float = st.floats(-1.0, 50.0).map(repr)
_float = _rarely(_good_float, st.sampled_from(["nan", "-inf", "1e400", "0x1", "x"]))
_session = st.builds(lambda sid, a, d, e, r: " ".join([sid, a, d, e, r]),
                     st.sampled_from(["a", "b", "c"]), _int, _int, _float, _float)


def _power(number, level):
    return st.one_of(st.builds("power constant {}".format, number),
                     st.builds(lambda vs: " ".join(["power", "step", *map(repr, vs)]),
                               st.lists(level, min_size=1, max_size=45)))


@st.composite
def instance_bytes(draw, well_formed=False):
    """An instance file, often well formed, sometimes with a line of arbitrary
    text or raw bytes (not always UTF-8) spliced in.  With `well_formed`,
    every number parses, ids are distinct, windows lie inside the horizon and
    nothing is spliced in, so that many files are valid instances with odd
    energies, rates and power levels."""
    if well_formed:
        horizon = draw(st.integers(0, 40))
        window = st.lists(st.integers(0, horizon), min_size=2, max_size=2, unique=True)
        sessions = [" ".join([sid, *map(str, sorted(draw(window))),
                              draw(_good_float), draw(_good_float)])
                    for sid in draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True,
                                             max_size=3 if horizon else 0))]
        power = draw(_power(_good_float, st.floats(-1.0, 50.0)))
        return "\n".join(["evcs-v1", f"horizon {horizon}", power, *sessions]).encode("utf-8")
    lines = ["evcs-v1", "horizon " + draw(_int),
             draw(_power(_float, st.floats(-1.0, 50.0) | st.just(float("nan")))),
             *draw(st.lists(_session, max_size=4))]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(st.text(max_size=20))]
    data = draw(st.sampled_from(["\n", "\r\n", "\n\n"])).join(lines).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


class TestInputBoundary:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(instance_bytes(), st.binary(max_size=200),
                     st.text(max_size=200).map(str.encode)))
    @example(b"evcs-v1\nhorizon -3\npower constant 1\n")
    @example(b"evcs-v1\nhorizon 2\npower constant 1\n\xff 0 2 1 1\n")
    def test_parses_or_names_line_and_column(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "boundary.evcs"
        path.write_bytes(data)
        try:
            inst = read_instance(path)
        except ParseError as exc:
            assert re.search(r"line [1-9][0-9]*, column [1-9][0-9]*: ", str(exc))
            return
        assert all(isinstance(v, Violation) for v in validate(inst))

    @settings(max_examples=300, deadline=None)
    @given(instance_bytes(well_formed=True))
    @example(b"evcs-v1\nhorizon 0\npower constant 1\n")
    @example(b"evcs-v1\nhorizon 6\npower step 0 0 2 0 2 1\na 0 3 1 1\nb 3 6 2 1\nc 3 4 1 2\n")
    @example(b"evcs-v1\nhorizon 40\npower constant 0.5\na 30 31 0.5 0.5\nb 2 5 0.1 9\n")
    def test_valid_instances_run_finite(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "finite.evcs"
        path.write_bytes(data)
        try:
            inst = read_instance(path)
        except ParseError:
            return
        if validate(inst):
            return
        for policy in POLICIES:
            schedule, verdict = simulate(inst, policy)
            numbers = [schedule.total_variation(), *verdict.unmet_energy.values()]
            assert all(math.isfinite(x) for x in numbers), (policy, verdict)
            # the least laxity over no sessions is the empty minimum, +inf
            assert math.isfinite(min_laxity(inst, schedule)) == bool(inst.sessions), policy
            assert validate_schedule(inst, schedule).feasible == verdict.feasible, policy
