import csv
import dataclasses
import io
import json
import math

import pytest

from evcs import augmentation
from evcs.cli import FULL_DATA_REFERENCE_EPS, REPORT_SCHEMA, main
from evcs.corpus import generate, reference_spec, write_instance
from evcs.model import ChargingSession, ConstantPower, Instance


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
    ])
    def test_malformed_spec_names_the_field(self, tmp_path, capsys, text, named):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(text)
        assert main(["gen", str(spec_file), str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
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


class TestRun:
    def test_feasible_run_exits_zero(self, ia_file, capsys):
        assert main(["run", ia_file, "--alg", "sllf"]) == 0
        captured = capsys.readouterr()
        rows = [r for r in rows_from_csv(captured.out) if r["session"] != "__verdict__"]
        delivered = sum(float(r["rate"]) for r in rows)
        assert delivered == pytest.approx(2.0, abs=1e-6)
        assert "feasible=True" in captured.err

    def test_infeasible_run_exits_one(self, tmp_path, capsys):
        inst = Instance((ChargingSession("a", 0, 2, 1.9, 1.0),), ConstantPower(0.5))
        path = tmp_path / "tight.evcs"
        write_instance(inst, path)
        assert main(["run", str(path), "--alg", "sllf"]) == 1

    def test_invalid_instance_exits_two(self, invalid_file):
        assert main(["run", invalid_file, "--alg", "sllf"]) == 2

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

    def test_directory_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path), "--alg", "sllf"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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


def test_no_command_exits_two():
    assert main([]) == 2
