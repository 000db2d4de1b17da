import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from evcs import augmentation, cli, simulator
from evcs.augmentation import AugmentationMode
from evcs.cli import FULL_DATA_REFERENCE_EPS, REPORT_SCHEMA, _run_csv, main
from evcs.corpus import (generate, read_instance, reference_spec, reference_spec_spaced,
                         write_instance)
from evcs.dynamics import Schedule
from evcs.feasibility import offline_feasible, validate_schedule
from evcs.model import ChargingSession, ConstantPower, Instance
from evcs.schedulers import POLICIES


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    spec = dataclasses.replace(reference_spec(), count=5, evs_max=4)
    for k, inst in enumerate(generate(spec)):
        write_instance(inst, out / f"instance_{k:04d}.evcs")
    return out


@pytest.fixture
def ia_file(tmp_path, instance_ia):
    path = tmp_path / "ia.evcs"
    write_instance(instance_ia, path)
    return str(path)


@pytest.fixture
def invalid_file(tmp_path):
    inst = Instance((ChargingSession("a", 0, 2, 2.5, 1.0),), ConstantPower(0.5))
    path = tmp_path / "bad.evcs"
    write_instance(inst, path)
    return str(path)


@pytest.fixture(params=["duplicate-id", "non-finite"])
def bad_corpus_dir(request, tmp_path, instance_ia):
    """A valid instance next to one that breaks the named invariant."""
    if request.param == "duplicate-id":
        sessions = (ChargingSession("a", 0, 2, 1.0, 1.0), ChargingSession("a", 0, 2, 1.0, 1.0))
    else:
        sessions = (ChargingSession("a", 0, 3, math.nan, 1.0),)
    write_instance(instance_ia, tmp_path / "instance_0000.evcs")
    write_instance(Instance(sessions, ConstantPower(2.0)), tmp_path / "instance_0001.evcs")
    return tmp_path, request.param


def rows_from_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestGen:
    def test_generates_corpus(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"count": 3, "evs_max": 3, "seed": 9}))
        out_dir = tmp_path / "out"
        assert main(["gen", str(spec_file), str(out_dir)]) == 0
        assert len(list(out_dir.glob("*.evcs"))) == 3

    def test_bad_spec_json(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{not json")
        assert main(["gen", str(spec_file), str(tmp_path / "out")]) == 2

    def test_unknown_spec_field(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"count": 1, "bogus": 7}))
        assert main(["gen", str(spec_file), str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("text, named", [
        ("[1, 2]", "JSON object"),
        ('"spec"', "JSON object"),
        ('{"evs_max": 3}', "'count'"),
        ('{"count": "5"}', "'count'"),
        ('{"count": true}', "'count'"),
        ('{"count": 2, "evs_min": 3.5}', "'evs_min'"),
        ('{"count": 2, "seed": 1.5}', "'seed'"),
        ('{"count": 2, "rate_max": "2"}', "'rate_max'"),
        ('{"count": 2, "demand_cap": [1]}', "'demand_cap'"),
        ('{"count": 2, "sojourn_max": Infinity}', "'sojourn_max'"),
        ('{"count": 2, "laxity_mean": NaN}', "'laxity_mean'"),
        ('{"count": 2, "arrival_gap_floor": -Infinity}', "'arrival_gap_floor'"),
        # well typed, but the sampled energies or the sampler itself overflow
        ('{"count": 1, "rate_min": 1e307, "rate_max": 1e308}',
         "generated invalid instance: non-finite (ev"),
        ('{"count": 2, "sojourn_max": 1e300, "sojourn_mean": 1e299}',
         "sojourn targets 1.0, 1e+299, 1e+300 overflow the sampler"),
    ])
    def test_malformed_spec_names_the_field(self, tmp_path, capsys, text, named):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(text)
        assert main(["gen", str(spec_file), str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "1e-320", "-1"])
    def test_slot_minutes_must_be_positive_with_a_finite_day(self, tmp_path, capsys, value):
        # 720 / slot_minutes sets how many slots a day's arrivals fall in
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(f'{{"count": 2, "slot_minutes": {value}}}')
        assert main(["gen", str(spec_file), str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: spec field 'slot_minutes' must be positive, with "
                                f"720 / slot_minutes finite, not {json.loads(value)!r}\n")
        assert not (tmp_path / "out").exists()

    def test_spec_that_is_not_utf8(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_bytes(b'{"count": 1, "seed": "\xff"}')
        assert main(["gen", str(spec_file), str(tmp_path / "out")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_integral_floats_and_null_options_are_accepted(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"count": 2, "evs_max": 3, "sojourn_min": 2,
                                         "demand_cap": None, "seed": 5}))
        assert main(["gen", str(spec_file), str(tmp_path / "out")]) == 0

    def test_failed_generation_leaves_no_directory(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"count": 1, "demand_cap": 1e-10}))
        assert main(["gen", str(spec_file), str(tmp_path / "out")]) == 2
        assert "demand cap leaves no room" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_regenerates_into_an_existing_directory(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"count": 2, "evs_max": 3, "seed": 9}))
        out_dir = tmp_path / "out"
        assert main(["gen", str(spec_file), str(out_dir)]) == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert main(["gen", str(spec_file), str(out_dir)]) == 0
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first

    def test_leftover_corpus_file_exits_two_and_writes_nothing(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"count": 3, "evs_max": 3, "seed": 9}))
        out_dir = tmp_path / "out"
        assert main(["gen", str(spec_file), str(out_dir)]) == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        capsys.readouterr()
        spec_file.write_text(json.dumps({"count": 2, "evs_max": 3, "seed": 9}))
        assert main(["gen", str(spec_file), str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "instance_0002.evcs" in captured.err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first


class TestCheck:
    def test_feasible_instance(self, ia_file, capsys):
        assert main(["check", ia_file]) == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert rows[0]["violations"] == ""
        assert rows[0]["offline_feasible"] == "True"
        assert float(rows[0]["min_power_capacity"]) == pytest.approx(1.0, abs=1e-4)

    def test_invalid_instance_lists_violations(self, invalid_file, capsys):
        assert main(["check", invalid_file]) == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert "individually-unsatisfiable" in rows[0]["violations"]

    def test_non_finite_energy_is_a_violation(self, tmp_path, capsys):
        path = tmp_path / "nan.evcs"
        path.write_text("evcs-v1\nhorizon 3\npower constant 1\na 0 3 nan 1\n")
        assert main(["check", str(path)]) == 0
        row = rows_from_csv(capsys.readouterr().out)[0]
        assert row["violations"] == "non-finite:a"
        assert row["min_power_capacity"] == ""

    def test_departure_past_declared_horizon_is_a_violation(self, tmp_path, capsys):
        path = tmp_path / "late.evcs"
        path.write_text("evcs-v1\nhorizon 2\npower constant 1\na 0 4 1 1\n")
        assert main(["check", str(path)]) == 0
        row = rows_from_csv(capsys.readouterr().out)[0]
        assert row["violations"] == "window-out-of-range:a"
        assert row["offline_feasible"] == ""

    def test_negative_horizon_is_a_violation(self, tmp_path, capsys):
        path = tmp_path / "negative.evcs"
        path.write_text("evcs-v1\nhorizon -3\npower constant 1\n")
        assert main(["check", str(path)]) == 0
        row = rows_from_csv(capsys.readouterr().out)[0]
        assert row["violations"] == "negative-horizon:horizon"
        assert row["offline_feasible"] == row["min_power_capacity"] == ""

    @pytest.mark.parametrize("body, violations", [
        ("horizon 2\npower constant 1\na 0 2 1e308 1e308\n", "non-finite:a;non-finite:demand"),
        ("horizon 3\npower constant 1e308\na 0 3 1e308 1e308\nb 0 3 1e308 1e308\n",
         "non-finite:a;non-finite:b;non-finite:demand;non-finite:power"),
        ("horizon 2\npower constant 1e308\na 0 2 1 1\n", "non-finite:power"),
    ], ids=["rate-times-sojourn", "every-product", "power-times-horizon"])
    def test_overflowing_products_are_violations(self, tmp_path, capsys, body, violations):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        path = corpus_dir / "instance_0000.evcs"
        path.write_text("evcs-v1\n" + body)
        assert main(["check", str(path)]) == 0
        row = rows_from_csv(capsys.readouterr().out)[0]
        assert row["violations"] == violations
        assert row["offline_feasible"] == row["min_power_capacity"] == ""
        assert main(["run", str(path), "--alg", "sllf"]) == 2
        assert main(["sweep", str(corpus_dir), "--algs", "sllf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize("body, violations", [
        (f"horizon 1{'0' * 400}\npower constant 1\na 0 2 1 1\n", "non-finite:horizon"),
        (f"horizon 3\npower constant 1\na 0 1{'0' * 400} 1 1\n",
         "window-out-of-range:a;non-finite:a"),
        (f"horizon 3\npower constant 1\na -1{'0' * 400} 2 1 1\n",
         "window-out-of-range:a;non-finite:a"),
    ], ids=["horizon", "departure", "arrival"])
    def test_integers_beyond_float_range_are_violations(self, tmp_path, capsys, body,
                                                         violations):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        path = corpus_dir / "instance_0000.evcs"
        path.write_text("evcs-v1\n" + body)
        assert main(["check", str(path)]) == 0
        captured = capsys.readouterr()
        assert rows_from_csv(captured.out)[0]["violations"] == violations
        assert "Traceback" not in captured.err
        for argv in (["run", str(path), "--alg", "sllf"],
                     ["sweep", str(corpus_dir), "--algs", "sllf"],
                     ["augment", str(corpus_dir), "--algs", "sllf", "--mode", "power"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {path}: invalid instance: ")
            assert captured.err.count("\n") == 1

    def test_huge_declared_horizon_is_checked_quickly(self, tmp_path, capsys):
        path = tmp_path / "huge.evcs"
        path.write_text("evcs-v1\nhorizon 10000000000\npower constant 1\na 0 2 1 1\n")
        start = time.perf_counter()
        assert main(["check", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        row = rows_from_csv(capsys.readouterr().out)[0]
        assert row["violations"] == ""
        assert row["offline_feasible"] == "True"
        assert float(row["min_power_capacity"]) == 0.5

    @pytest.mark.parametrize("body, feasible, p_star", [
        # 1e-12 of the session arc's 1e300 would hide the demand of 2
        ("horizon 1\npower constant 3\na 0 1 2 1e300\n", "True", "2.0"),
        # b's demand of 1 is short, though within DEMAND_TOL of the total demand
        ("horizon 1\npower constant 10000000\na 0 1 10000000 10000000\nb 0 1 1 1\n",
         "False", "10000001.0"),
        # b ships only through the reverse of a's arc into slot 0, which a
        # tolerance of 1e-12 of the peak rate times the slots would hide
        ("horizon 2\npower constant 1.5\na 0 2 2 1e300\nb 0 1 1 1\n", "True", "1.5"),
        ("horizon 2\npower constant 1.5\na 0 2 2 1e13\nb 0 1 1 1\n", "True", "1.5"),
    ], ids=["huge-rate", "small-beside-large", "rerouted-past-huge-rate",
            "rerouted-past-large-rate"])
    def test_every_session_ships_its_own_demand(self, tmp_path, capsys, body, feasible, p_star):
        path = tmp_path / "scales.evcs"
        path.write_text("evcs-v1\n" + body)
        assert main(["check", str(path)]) == 0
        captured = capsys.readouterr()
        row = rows_from_csv(captured.out)[0]
        assert (row["violations"], row["offline_feasible"], row["min_power_capacity"]) == (
            "", feasible, p_star)
        assert "Traceback" not in captured.err

    def test_a_demand_below_the_power_s_rounding_is_checked_quickly(self, tmp_path, capsys):
        path = tmp_path / "tiny.evcs"
        path.write_text("evcs-v1\nhorizon 2\npower constant 1\n"
                        "a 0 2 1e300 1e300\nb 0 1 1e-300 1\n")
        start = time.perf_counter()
        assert main(["check", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        p_star = float(rows_from_csv(capsys.readouterr().out)[0]["min_power_capacity"])
        inst = read_instance(path)
        ok, witness = offline_feasible(inst, p_star)
        assert ok and validate_schedule(
            Instance(inst.sessions, ConstantPower(p_star), inst.horizon), witness).feasible

    def test_missing_file(self):
        assert main(["check", "/nonexistent.evcs"]) == 2

    def test_non_utf8_byte_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.evcs"
        path.write_bytes(b"evcs-v1\nhorizon 2\npower constant 1\nd\xe9j\xe0 0 2 1 1\n")
        assert main(["check", str(path)]) == 2
        assert "line 4, column 2" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.evcs"
        path.write_text("garbage\n")
        assert main(["check", str(path)]) == 2

    def test_json_parity(self, ia_file, capsys):
        main(["check", ia_file])
        csv_rows = rows_from_csv(capsys.readouterr().out)
        main(["check", ia_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == REPORT_SCHEMA
        json_row = payload["rows"][0]
        assert str(json_row["offline_feasible"]) == csv_rows[0]["offline_feasible"]
        assert float(csv_rows[0]["min_power_capacity"]) == pytest.approx(
            json_row["min_power_capacity"])


def run_python(args, **env_vars):
    """`python args...` with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("EVCS_THREADS", None)
    env.update(env_vars)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


class TestModuleEntry:
    def test_python_dash_m_runs_check(self, ia_file):
        done = run_python(["-m", "evcs", "check", ia_file])
        assert done.returncode == 0, done.stderr
        assert rows_from_csv(done.stdout)[0]["offline_feasible"] == "True"

    def test_cli_runs_as_one_serial_process(self, tmp_path):
        probe = run_python(["-c", "import sys, evcs.cli; print('multiprocessing' in sys.modules)"])
        assert probe.stdout == "False\n", probe.stderr
        spec = dataclasses.replace(reference_spec(), count=3, evs_max=4)
        for k, inst in enumerate(generate(spec)):
            write_instance(inst, tmp_path / f"instance_{k:04d}.evcs")
        argv = ["-m", "evcs", "sweep", str(tmp_path), "--algs", ",".join(POLICIES)]
        serial, pooled = run_python(argv), run_python(argv, EVCS_THREADS="2")
        assert serial.returncode == 0, serial.stderr
        assert (pooled.stdout, pooled.stderr, pooled.returncode) == \
            (serial.stdout, serial.stderr, serial.returncode)


class TestRun:
    def test_feasible_run_exits_zero(self, ia_file, capsys):
        assert main(["run", ia_file, "--alg", "sllf"]) == 0
        captured = capsys.readouterr()
        rows = [r for r in rows_from_csv(captured.out) if r["session"] != "__verdict__"]
        delivered = sum(float(r["rate"]) for r in rows)
        assert delivered == pytest.approx(2.0, abs=1e-6)
        assert "feasible=True" in captured.err

    @pytest.mark.parametrize("alg, summary", [
        ("sllf", "min_laxity=0 oscillation=0.5 switches=0"),
        ("llf", "min_laxity=0 oscillation=1.5 switches=1"),
    ])
    def test_summary_line(self, ia_file, capsys, alg, summary):
        assert main(["run", ia_file, "--alg", alg]) == 0
        assert capsys.readouterr().err == (f"# alg={alg} feasible=True {summary} "
                                           f"sojourn_ratio=1 min_norm_laxity=0.375\n")

    def test_infeasible_run_exits_one(self, tmp_path, capsys):
        inst = Instance((ChargingSession("a", 0, 2, 1.9, 1.0),), ConstantPower(0.5))
        path = tmp_path / "tight.evcs"
        write_instance(inst, path)
        assert main(["run", str(path), "--alg", "sllf"]) == 1

    def test_a_demand_under_the_finished_level_is_met(self, tmp_path, capsys):
        # a's energy 1e-13 is under FINISHED_EPS: it is charged to DEMAND_TOL of itself
        inst = Instance((ChargingSession("a", 0, 2, 1e-13, 1.0),
                         ChargingSession("b", 0, 3, 2.0, 1.0)), ConstantPower(1.0))
        assert offline_feasible(inst)[0]
        path = tmp_path / "tiny.evcs"
        write_instance(inst, path)
        for alg in sorted(POLICIES):
            assert simulator.simulate(inst, alg)[1].feasible, alg
            assert main(["run", str(path), "--alg", alg]) == 0, alg
            assert f"# alg={alg} feasible=True " in capsys.readouterr().err

    @pytest.mark.parametrize("energy", [1e-300, 1e-318, 1e-320, 5e-324])
    def test_a_subnormal_demand_is_met(self, tmp_path, capsys, energy):
        # below about 1e-317 DEMAND_TOL * energy rounds to 0.0: the session is
        # charged until none is left
        inst = Instance((ChargingSession("a", 0, 2, energy, 1.0),), ConstantPower(1.0), 3)
        assert offline_feasible(inst)[0]
        path = tmp_path / "subnormal.evcs"
        write_instance(inst, path)
        for alg in sorted(POLICIES):
            assert simulator.simulate(inst, alg)[1].feasible, alg
            assert main(["run", str(path), "--alg", alg]) == 0, alg
            out, err = capsys.readouterr()
            assert out == f"session,slot,rate\r\na,0,{energy!r}\r\n__verdict__,-1,\r\n", alg
            assert f"# alg={alg} feasible=True " in err, alg

    def test_invalid_instance_exits_two(self, invalid_file):
        assert main(["run", invalid_file, "--alg", "sllf"]) == 2

    def test_invalid_instance_is_named_as_sweep_and_augment_name_it(self, tmp_path, capsys):
        path = tmp_path / "instance_0000.evcs"
        path.write_text("evcs-v1\nhorizon 2\npower constant 2\na 0 2 1 1\na 0 2 1 1\n")
        message = f"error: {path}: invalid instance: duplicate-id (a): session id 'a' repeated\n"
        for argv in (["run", str(path), "--alg", "sllf"], ["sweep", str(tmp_path), "--algs", "sllf"],
                     ["augment", str(tmp_path), "--algs", "sllf", "--mode", "power"]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", message)

    def test_unknown_alg_exits_two(self, ia_file):
        assert main(["run", ia_file, "--alg", "wrong"]) == 2

    def test_session_less_instance(self, tmp_path, capsys):
        path = tmp_path / "empty.evcs"
        path.write_text("evcs-v1\nhorizon 0\npower constant 1\n")
        assert main(["run", str(path), "--alg", "olp", "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["rows"] == [
            {"session": "__verdict__", "slot": -1, "rate": ""}]
        assert "sojourn_ratio=1 min_norm_laxity=1" in captured.err

    def test_quoted_ids(self, tmp_path, capsys):
        # ids are whitespace-split tokens, so commas and quotes are allowed
        path = tmp_path / "quoted.evcs"
        path.write_text('evcs-v1\nhorizon 3\npower constant 1.5\n'
                        'a,b 0 2 1.5 1\nq"x 1 3 1 1\n')
        assert main(["run", str(path), "--alg", "edf"]) == 0
        assert capsys.readouterr().out == (
            'session,slot,rate\r\n"a,b",0,1.0\r\n"a,b",1,0.5\r\n"q""x",1,1.0\r\n'
            '__verdict__,-1,\r\n')
        assert main(["run", str(path), "--alg", "edf", "--json"]) == 0
        rows = [("a,b", 0, 1.0), ("a,b", 1, 0.5), ('q\\"x', 1, 1.0), ("__verdict__", -1, '""')]
        records = ",\n".join(f'    {{\n      "session": "{sid}",\n      "slot": {t},\n'
                              f'      "rate": {r}\n    }}' for sid, t, r in rows)
        assert capsys.readouterr().out == (
            f'{{\n  "schema": "{REPORT_SCHEMA}",\n  "rows": [\n{records}\n  ]\n}}\n')

    @pytest.mark.parametrize("alg", sorted(POLICIES))
    @pytest.mark.parametrize("text", [
        'evcs-v1\nhorizon 5\npower constant 1.3\n'
        'a,b 0 4 2.9 1\nq"x 1 5 2.3 0.7\nplain 2 4 0.1 1\n',
        # 30 slots: the caps fit, then zero power, a contended stretch, the caps again
        'evcs-v1\nhorizon 30\npower step ' + ' '.join(['3'] * 10 + ['0'] * 5 + ['1.25'] * 5
                                                     + ['3'] * 10) + '\n'
        'a,b 0 30 20 1\nq"x 0 30 20 1\nplain 2 28 10 0.5\n',
    ], ids=["short", "repeated-rates"])
    def test_csv_is_what_csv_writer_writes(self, tmp_path, capsys, alg, text):
        # rows are joined per session id and a repeated rate reuses its text,
        # so compare them with the writer's own bytes
        path = tmp_path / "quoted.evcs"
        path.write_text(text)
        schedule, _ = simulator.simulate(read_instance(path), alg)
        if "horizon 30" in text:
            a, q = schedule.rates["a,b"], schedule.rates['q"x']
            assert a[:10] == q[:10] == (1.0,) * 10  # a run of one rate, shared by two rows
            assert a[10:15] == (0.0,) * 5 and a[20] == 1.0  # the rate again after a gap
        columns = ["session", "slot", "rate"]
        rows = [(sid, t, r) for sid, row in schedule.rates.items()
                for t, r in enumerate(row, schedule.starts[sid]) if r != 0.0]
        rows.append(("__verdict__", -1, ""))
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(columns)
        writer.writerows(rows)
        assert main(["run", str(path), "--alg", alg]) in (0, 1)
        assert capsys.readouterr().out == expected.getvalue()
        assert main(["run", str(path), "--alg", alg, "--json"]) in (0, 1)
        records = [dict(zip(columns, row)) for row in rows]
        assert capsys.readouterr().out == json.dumps(
            {"schema": REPORT_SCHEMA, "rows": records}, indent=2) + "\n"

    def test_csv_of_random_schedules_is_what_csv_writer_writes(self):
        # rates repeat along a row and across rows, ids need quoting, and
        # nonzero rates of one value are written from one text
        rng = random.Random(38)
        pool = [1.0, 0.5, 1 / 3, 0.0, -0.0, 1e-320, -2.5, math.inf, -math.inf, math.nan]
        columns, last = ["session", "slot", "rate"], ("__verdict__", -1, "")
        for _ in range(200):
            horizon = rng.randint(1, 30)
            rates, starts = {}, {}
            for sid in rng.sample(["a", "a,b", 'q"x', "plain", " sp "], rng.randint(1, 5)):
                starts[sid] = rng.randrange(horizon)
                row = []
                while len(row) < horizon - starts[sid] and rng.random() < 0.9:
                    row += [rng.choice(pool)] * rng.randint(1, 4)
                rates[sid] = tuple(row[:horizon - starts[sid]])
            schedule = Schedule(horizon, rates, starts)
            expected = io.StringIO()
            writer = csv.writer(expected)
            writer.writerow(columns)
            for sid, row in rates.items():
                for t, r in enumerate(row, starts[sid]):
                    if r != 0.0:
                        writer.writerow((sid, t, r))
            writer.writerow(last)
            assert _run_csv(schedule, columns, last) == expected.getvalue()

    def test_directory_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path), "--alg", "sllf"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("alg", sorted(POLICIES))
    def test_huge_declared_horizon_runs_quickly(self, tmp_path, capsys, alg):
        # rows cover the sojourn and only busy slots are stepped
        reports = []
        for horizon in (2, 10**10):
            path = tmp_path / f"h{horizon}.evcs"
            path.write_text(f"evcs-v1\nhorizon {horizon}\npower constant 1\na 0 2 1 1\n")
            start = time.perf_counter()
            assert main(["run", str(path), "--alg", alg]) == 0
            assert time.perf_counter() - start < 1.0
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("alg", sorted(POLICIES))
    def test_a_huge_peak_rate_next_to_the_power_runs(self, tmp_path, capsys, alg):
        # a peak rate of 1e10 multiplies the rounding of sLLF's water level
        # by 1e10: its slot-0 rate read 2.5000002068509275 against P = 2.5
        path = tmp_path / "peak.evcs"
        path.write_text("evcs-v1\nhorizon 4\npower constant 2.5\na 0 4 3 1e10\n")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",True,0.75")
        assert main(["run", str(path), "--alg", alg]) == 0
        captured = capsys.readouterr()
        rows = [r for r in rows_from_csv(captured.out) if r["session"] != "__verdict__"]
        assert [(r["slot"], float(r["rate"])) for r in rows] == [("0", 2.5), ("1", 0.5)]
        assert f"# alg={alg} feasible=True " in captured.err


class TestSweep:
    def test_overall_rates(self, corpus_dir, capsys):
        assert main(["sweep", str(corpus_dir), "--algs", "sllf,rep"]) == 0
        rows = rows_from_csv(capsys.readouterr().out)
        overall = {r["algorithm"]: float(r["success_rate"])
                   for r in rows if r["bin"] == "all"}
        assert set(overall) == {"sllf", "rep"}
        assert overall["sllf"] >= overall["rep"]

    def test_binned_output(self, corpus_dir, capsys):
        assert main(["sweep", str(corpus_dir), "--algs", "sllf",
                     "--bin-by", "sojourn-ratio", "--bins", "2"]) == 0
        rows = rows_from_csv(capsys.readouterr().out)
        binned = [r for r in rows if r["metric"] == "sojourn-ratio"]
        assert len(binned) == 2
        assert sum(int(r["instances"]) for r in binned) == 5

    def test_unknown_alg(self, corpus_dir):
        assert main(["sweep", str(corpus_dir), "--algs", "sllf,bogus"]) == 2

    @pytest.mark.parametrize("metric", ["sojourn-ratio", "norm-laxity"])
    def test_bins_a_session_less_instance(self, tmp_path, instance_ia, metric, capsys):
        write_instance(instance_ia, tmp_path / "instance_0000.evcs")
        (tmp_path / "instance_0001.evcs").write_text("evcs-v1\nhorizon 0\npower constant 1\n")
        assert main(["sweep", str(tmp_path), "--algs", "sllf", "--bin-by", metric,
                     "--bins", "2", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["instances"] for r in rows] == [2, 1, 1]

    @pytest.mark.parametrize("command", [["sweep"], ["augment", "--mode", "power"]],
                             ids=["sweep", "augment"])
    @pytest.mark.parametrize("algs", [",", "", " , "], ids=["comma", "empty", "spaces"])
    def test_empty_algs_exit_two(self, corpus_dir, capsys, command, algs):
        assert main([command[0], str(corpus_dir), "--algs", algs, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --algs names no algorithm; "
                                "valid: edf, es, llf, olp, rep, sllf\n")

    @pytest.mark.parametrize("command", [["sweep"], ["augment", "--mode", "power"]],
                             ids=["sweep", "augment"])
    @pytest.mark.parametrize("algs, name", [("sllf,sllf", "sllf"), ("olp, edf,olp", "olp")],
                             ids=["adjacent", "apart"])
    def test_repeated_algs_exit_two(self, corpus_dir, capsys, command, algs, name):
        assert main([command[0], str(corpus_dir), "--algs", algs, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --algs names {name} twice\n"

    def test_file_exits_two(self, ia_file, capsys):
        assert main(["sweep", ia_file, "--algs", "sllf"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_corpus_exits_two(self, bad_corpus_dir, capsys):
        path, code = bad_corpus_dir
        assert main(["sweep", str(path), "--algs", "sllf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "instance_0001.evcs" in captured.err and code in captured.err

    @pytest.mark.parametrize("bins", ["0", "-2", "1.5", "x"])
    def test_bins_must_be_a_positive_integer(self, corpus_dir, capsys, bins):
        argv = ["sweep", str(corpus_dir), "--algs", "sllf", "--bin-by", "norm-laxity"]
        assert main(argv + ["--bins", bins]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--bins" in captured.err
        assert main(argv + ["--bins", "1"]) == 0
        assert len(rows_from_csv(capsys.readouterr().out)) == 2

    def test_files_are_read_in_path_order_by_their_suffix(self, tmp_path, monkeypatch,
                                                          instance_ia):
        # the names sort as strings, as the paths of one directory do, and a
        # file counts where `Path.suffix` is ".evcs": not ".evcs" itself
        names = ["b.evcs", "a.evcs", ".evcs", "..evcs", "c.EVCS", "x.evcs.bak", "A.evcs",
                 "\u00e9.evcs", "10.evcs", "9.evcs", "evcs", "a b.evcs", "-.evcs"]
        for name in names:
            write_instance(instance_ia, tmp_path / name)
        (tmp_path / "d.evcs").mkdir()  # read, and an error, as before
        read = []
        monkeypatch.setattr(cli, "_read_valid", lambda path: read.append(path) or instance_ia)
        cli._load_corpus(tmp_path)
        assert read == sorted(p for p in tmp_path.iterdir() if p.suffix == ".evcs")
        assert [p.name for p in read] == ["-.evcs", "..evcs", "10.evcs", "9.evcs", "A.evcs",
                                          "a b.evcs", "a.evcs", "b.evcs", "d.evcs",
                                          "\u00e9.evcs"]

    def test_reports_are_byte_identical(self, corpus_dir, capsys):
        main(["sweep", str(corpus_dir), "--algs", "sllf,llf"])
        first = capsys.readouterr().out
        main(["sweep", str(corpus_dir), "--algs", "sllf,llf"])
        assert capsys.readouterr().out == first


class TestAugment:
    def test_power_mode_report(self, corpus_dir, capsys):
        assert main(["augment", str(corpus_dir), "--algs", "sllf",
                     "--mode", "power"]) == 0
        rows = rows_from_csv(capsys.readouterr().out)
        row = rows[0]
        assert row["algorithm"] == "sllf"
        assert float(row["min_eps"]) >= 0.0
        assert float(row["theorem2_bound_max"]) >= 0.0
        assert float(row["full_data_reference_eps"]) == \
            FULL_DATA_REFERENCE_EPS["sllf"]["power"]

    def test_reference_annotations_cover_all_algorithms(self):
        assert set(FULL_DATA_REFERENCE_EPS) == {"sllf", "llf", "edf", "es", "rep", "olp"}
        for modes in FULL_DATA_REFERENCE_EPS.values():
            assert set(modes) == {"power", "power-rate"}

    def test_invalid_corpus_exits_two(self, bad_corpus_dir, capsys):
        path, code = bad_corpus_dir
        assert main(["augment", str(path), "--algs", "sllf", "--mode", "power"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "instance_0001.evcs" in captured.err and code in captured.err

    def test_empty_corpus_leaves_theorem1_blank(self, tmp_path, capsys):
        assert main(["augment", str(tmp_path), "--algs", "sllf", "--mode", "power"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "sllf,power,0.0,,0.0,0.07"
        assert captured.err == ("note: theorem1_bound left blank: theorem 1 needs at "
                                "least one session, and the corpus has none\n")

    def test_simultaneous_arrivals_leave_theorem1_blank(self, tmp_path, capsys):
        (tmp_path / "instance_0000.evcs").write_text(
            "evcs-v1\nhorizon 4\npower constant 2\na 1 3 1 1\nb 1 4 1 1\n")
        assert main(["augment", str(tmp_path), "--algs", "sllf,edf", "--mode", "power"]) == 0
        captured = capsys.readouterr()
        rows = rows_from_csv(captured.out)
        assert [row["theorem1_bound"] for row in rows] == ["", ""]
        assert all(row["theorem2_bound_max"] != "" for row in rows)
        assert captured.err == ("note: theorem1_bound left blank: theorem 1 needs arrivals "
                                "at least 2 slots apart, and the smallest arrival spacing "
                                "is 0\n")

    def test_zero_power_leaves_theorem2_blank(self, tmp_path, capsys):
        (tmp_path / "instance_0000.evcs").write_text(
            "evcs-v1\nhorizon 2\npower constant 0\na 0 2 1 1\n")
        assert main(["augment", str(tmp_path), "--algs", "sllf,edf", "--mode", "power"]) == 0
        captured = capsys.readouterr()
        rows = rows_from_csv(captured.out)
        assert all(row["theorem1_bound"] == row["theorem2_bound_max"] == "" for row in rows)
        assert rows[0]["min_eps"] == f"no finite eps <= {augmentation.EPS_CEILING}"
        # one note per blank column, not one per row
        assert captured.err.splitlines() == [
            "note: theorem1_bound left blank: theorem 1 needs positive power, "
            "not a range of [0.0, 0.0]",
            "note: theorem2_bound_max left blank: theorem 2 needs positive power, "
            "and the sojourn of session a sees P = 0.0",
        ]

    def test_filled_cells_leave_stderr_quiet(self, corpus_dir, capsys):
        assert main(["augment", str(corpus_dir), "--algs", "edf", "--mode", "power-rate"]) == 0
        captured = capsys.readouterr()
        row = rows_from_csv(captured.out)[0]
        assert row["theorem1_bound"] != "" and row["theorem2_bound_max"] != ""
        assert captured.err == ""

    def test_unrelated_errors_are_not_hidden(self, corpus_dir, monkeypatch):
        def broken(instances):
            raise RuntimeError("bug in the bound inputs")
        monkeypatch.setattr(augmentation, "corpus_bound_inputs", broken)
        with pytest.raises(RuntimeError):
            main(["augment", str(corpus_dir), "--algs", "sllf", "--mode", "power"])

    def test_missing_mode_exits_two(self, corpus_dir):
        assert main(["augment", str(corpus_dir), "--algs", "sllf"]) == 2

    def test_a_warning_is_one_line_without_its_source_path(self, corpus_dir, monkeypatch,
                                                             capsys):
        argv = ["augment", str(corpus_dir), "--algs", "edf", "--mode", "power-rate"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        search, shown = augmentation.min_feasible_eps, warnings.showwarning

        def warning_search(instances, alg, mode):
            warnings.warn("feasibility not monotone near eps = 0.5")
            return search(instances, alg, mode)

        monkeypatch.setattr(augmentation, "min_feasible_eps", warning_search)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == quiet.out
        assert captured.err == quiet.err + "warning: feasibility not monotone near eps = 0.5\n"
        assert warnings.showwarning is shown


class TestReproducesExperiments:
    """The README recipe for the paper's experiments reports what the library
    functions it stands for return when called directly."""

    ALGS = "edf,es,llf,olp,rep,sllf"

    @pytest.fixture(scope="class")
    def instances(self, corpus_dir):
        return [read_instance(p) for p in sorted(corpus_dir.glob("*.evcs"))]

    def test_gen_of_the_spec_json_writes_the_spaced_corpus(self, tmp_path, spaced_corpus):
        spec_file = tmp_path / "spaced.json"
        spec_file.write_text(json.dumps(dataclasses.asdict(reference_spec_spaced())))
        assert main(["gen", str(spec_file), str(tmp_path / "spaced")]) == 0
        files = sorted((tmp_path / "spaced").glob("*.evcs"))
        assert [read_instance(p) for p in files] == spaced_corpus

    @pytest.mark.parametrize("metric, index", [("sojourn-ratio", 0), ("norm-laxity", 1)])
    def test_sweep_reports_the_binned_success_rates(self, corpus_dir, instances, capsys,
                                                     metric, index):
        assert main(["sweep", str(corpus_dir), "--algs", self.ALGS, "--bin-by", metric]) == 0
        expected = []
        for alg in self.ALGS.split(","):
            flags = simulator.run_feasibility(instances, alg)
            expected.append((alg, "all", "", "", "", len(flags), sum(flags) / len(flags)))
            binned = simulator.binned_success_rates(instances, flags, index, 3)
            expected.extend((alg, b, metric, *cells) for b, cells in enumerate(binned))
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert rows == [[str(cell) for cell in row] for row in expected]

    @pytest.mark.parametrize("mode", list(AugmentationMode))
    def test_augment_reports_the_minimum_eps(self, corpus_dir, instances, capsys, mode):
        assert main(["augment", str(corpus_dir), "--algs", self.ALGS,
                     "--mode", mode.value]) == 0
        rows = rows_from_csv(capsys.readouterr().out)
        t1 = augmentation.theorem1_bound(augmentation.corpus_bound_inputs(instances))
        t2 = max(max(augmentation.theorem2_bound(i), 0.0) for i in instances)
        assert [(r["algorithm"], r["min_eps"], r["theorem1_bound"], r["theorem2_bound_max"])
                for r in rows] == [
            (alg, str(augmentation.min_feasible_eps(instances, alg, mode)), str(t1), str(t2))
            for alg in self.ALGS.split(",")]


def test_no_command_exits_two():
    assert main([]) == 2


def test_the_parser_is_built_once_and_reused(ia_file, capsys):
    from evcs.cli import build_parser
    assert build_parser() is build_parser()
    reports = []
    for _ in range(2):
        assert main(["run", ia_file, "--alg", "sllf"]) == 0
        assert main(["check", ia_file, "--json"]) == 0
        assert main(["run", ia_file]) == 2
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]


def test_an_id_stdout_cannot_encode_is_one_error_line(tmp_path):
    path = tmp_path / "accent.evcs"
    path.write_bytes("evcs-v1\nhorizon 2\npower constant 1\né 0 2 1 1\n".encode())
    done = run_python(["-m", "evcs", "run", str(path), "--alg", "edf"],
                      LC_ALL="C", PYTHONUTF8="0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "'ascii' codec" in done.stderr
    # --json escapes the id, so it still runs
    done = run_python(["-m", "evcs", "run", str(path), "--alg", "edf", "--json"],
                      LC_ALL="C", PYTHONUTF8="0")
    assert done.returncode == 0, done.stderr
    assert '"session": "\\u00e9"' in done.stdout
