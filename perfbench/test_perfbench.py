"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_evcs()

import tracer  # noqa: E402
import workloads  # noqa: E402
from evcs import cli, corpus, simulator  # noqa: E402
from evcs.augmentation import AugmentationMode, min_feasible_eps  # noqa: E402
from evcs.model import Instance  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0]


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0), span("c", 4.0, 5.0, 0),
                 span("d", 1.5, 2.0, 1)]
        assert tracer.self_times(spans) == pytest.approx([7.0, 1.5, 1.0, 0.5])

    def test_overlap_and_overhang_count_once(self):
        spans = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0), span("c", 2.0, 5.0, 0),
                 span("d", 8.0, 12.0, 0)]
        assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)

    def test_leaf_self_time_is_its_duration(self):
        assert tracer.self_times([span("a", 2.0, 2.5)]) == pytest.approx([0.5])

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert tracer.percentile(values, 50) == 50
        assert tracer.percentile(values, 99) == 99
        assert tracer.percentile([3.0], 99) == 3.0
        assert tracer.percentile([], 50) == 0.0


class TestTracer:
    def test_install_restores_originals(self):
        from evcs.model import Instance as Inst
        from evcs.schedulers import POLICIES
        before = (cli.main, corpus.generate, simulator.step, POLICIES["olp"],
                  Inst.__dict__["session"])
        with tracer.Tracer().install():
            assert cli.main is not before[0]
        after = (cli.main, corpus.generate, simulator.step, POLICIES["olp"],
                 Inst.__dict__["session"])
        assert after == before

    def test_counts_of_one_gen(self, tmp_path):
        spec = dataclasses.replace(corpus.reference_spec(), count=3, seed=5)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(dataclasses.asdict(spec)))
        tr = tracer.Tracer()
        with tr.install():
            assert cli.main(["gen", str(spec_file), str(tmp_path / "out")]) == 0
        m = tracer.layer_metrics(tr)
        assert m["feasibility.min_power_capacity.calls"] == 3
        assert m["feasibility.max_flows_per_min_power"] == 61
        assert m["netflow.max_flow.calls"] == 3 * 62
        assert m["corpus.oracle_probes_per_instance"] == 1.0
        assert m["schedulers.sllf.decisions"] == 0
        assert set(m) == {name for name, _ in tracer.LAYER_METRICS}

    def test_tracing_keeps_stdout(self, tmp_path, capsys):
        inst = workloads.day_instance(3, smoke=True)
        path = tmp_path / "day.evcs"
        corpus.write_instance(inst, path)
        argv = ["run", str(path), "--alg", "olp"]
        cli.main(argv)
        plain = capsys.readouterr().out
        tr = tracer.Tracer()
        with tr.install():
            cli.main(argv)
        assert capsys.readouterr().out == plain
        m = tracer.layer_metrics(tr)
        assert m["schedulers.olp.decisions"] == inst.horizon
        assert m["simulator.simulate.calls"] == 1
        assert m["model.session_lookups"] > 0


class TestChecks:
    def test_generated_power_must_be_tight(self, tmp_path):
        spec = dataclasses.replace(corpus.reference_spec(), count=2, seed=8)
        insts = corpus.generate(spec)
        good, loose = tmp_path / "good.evcs", tmp_path / "loose.evcs"
        corpus.write_instance(insts[0], good)
        corpus.write_instance(Instance(insts[1].sessions, insts[1].power.scaled(2.0)), loose)
        assert workloads.check_generated([good], 1) == []
        problems = workloads.check_generated([good, loose], 3)
        assert any("2 files" in p for p in problems)
        assert any("still feasible" in p for p in problems)

    def test_day_run_exit_code_must_match_schedule(self, tmp_path, capsys):
        inst = workloads.day_instance(4, smoke=True)
        path = tmp_path / "day.evcs"
        corpus.write_instance(inst, path)
        rc = cli.main(["run", str(path), "--alg", "llf"])
        out = capsys.readouterr().out
        assert workloads.check_day_run(path, rc, out) == []
        assert workloads.check_day_run(path, 1 - rc, out) != []

    def test_sweep_report_must_cover_chunk(self, tmp_path):
        spec = dataclasses.replace(corpus.reference_spec(), count=2, seed=9)
        workloads._write_chunk(spec, tmp_path)
        report = "algorithm,bin,metric,bin_low,bin_high,instances,success_rate\n"
        assert workloads.check_sweep(tmp_path, "edf", report + "edf,all,,,,2,0.5\n", [0]) == []
        assert workloads.check_sweep(tmp_path, "edf", report + "edf,all,,,,1,0.5\n", [0]) != []

    def test_augment_eps_must_be_minimal(self, tmp_path):
        spec = dataclasses.replace(corpus.reference_spec(), count=4, seed=2)
        workloads._write_chunk(spec, tmp_path)
        header = ("algorithm,mode,min_eps,theorem1_bound,theorem2_bound_max,"
                  "full_data_reference_eps\n")
        instances = [corpus.read_instance(p) for p in workloads._corpus_files(tmp_path)]
        eps = min_feasible_eps(instances, "edf", AugmentationMode.POWER)
        ok = header + f"edf,power,{eps!r},,,1.39\n"
        assert workloads.check_augment(tmp_path, "edf", "power", ok) == []
        too_big = header + f"edf,power,{eps + 0.5!r},,,1.39\n"
        assert workloads.check_augment(tmp_path, "edf", "power", too_big) != []


class TestJudge:
    def test_changed_output_and_counts_fail(self, tmp_path):
        job = workloads.Job("k", ["sweep", "x"], 1)
        judge = run.Judge({"counts": {"c": 61}}, tmp_path)
        judge.judge(run.Outcome(job, 0, "a", "", 0.1, 0.1))
        judge.judge(run.Outcome(job, 0, "a", "", 0.1, 0.1))
        assert judge.failed == 0
        judge.judge(run.Outcome(job, 0, "b", "", 0.1, 0.1))
        judge.judge(run.Outcome(job, 2, "a", "boom", 0.1, 0.1))
        judge.counts({"c": 60})
        assert (judge.attempted, judge.failed) == (5, 3)

    def test_checks_read_outputs_back(self, tmp_path):
        job = workloads.Job("k", ["sweep", "x"], 1,
                            check=lambda rc, out: [] if out == "good" else ["bad"])
        judge = run.Judge({}, tmp_path)
        judge.judge(run.Outcome(job, 0, "good", "", 0.1, 0.1))
        judge.judge(run.Outcome(workloads.Job("k", ["sweep", "y"], 1, check=job.check),
                                0, "worse", "", 0.1, 0.1))
        assert len(list(tmp_path.iterdir())) == 2 and judge.failed == 0
        judge.finish()
        assert judge.failed == 1 and judge.problems == ["sweep y: bad"]


def test_setup_runs_in_a_child():
    args = run.parse_args(["--workload", "day-scale", "--seed", "3", "--smoke"])
    work = run.ROOT / run.OUT / "work" / "day-scale-seed3-smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = run.run_setup(args)
        assert (work / "day_0.evcs").is_file()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert len(setup) > 1 and all(o.seconds > 0 and o.ref_seconds > 0 for o in setup)
    with pytest.raises(RuntimeError, match="unknown workload"):
        run.run_setup(run.parse_args(["--workload", "nope"]))


def bench(*args, cwd=None):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    p = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
              "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, p.stderr
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "day-scale",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
