"""The four benchmark workloads: seeded inputs, timed CLI jobs, output checks.

Every workload turns `--seed` into inputs during set-up, in several units so
that set-up time can be reported as a median.  An optional warm-up command
then runs once, untimed, so that first-call costs stay out of the timed
window and out of set-up.  The timed work is a list of
rounds of CLI jobs; the window cycles through the rounds until time is up,
so each run sees as many distinct inputs as the window allows.  Checks run
after the window and never inside it.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from evcs import augmentation, cli, corpus, feasibility, simulator
from evcs.augmentation import EPS_TOL, AugmentationMode
from evcs.dynamics import Schedule
from evcs.model import ConstantPower, Instance, validate

SWEEP_POLICIES = ("sllf", "llf", "edf", "es", "rep", "olp")
AUGMENT_PAIRS = (("sllf", "power"), ("edf", "power"), ("sllf", "power-rate"),
                 ("edf", "power-rate"))
DAY_POLICIES = ("sllf", "llf", "edf", "es", "rep")

#: instances per generated chunk; 50 is the smallest count at which
#: `corpus.generate` refits its laxity distribution as for the full corpus
CHUNK = 50

WARM_UP_SPEC = dataclasses.replace(corpus.reference_spec(), count=2)


@dataclass
class Job:
    """One timed CLI command and how to judge its output."""

    kind: str                    # jobs of one kind are compared with each other
    argv: list[str]
    instances: int               # (instance, command) pairs the job completes
    policy: str | None = None    # policy whose time this job adds to, if any
    ok_codes: tuple[int, ...] = (0,)
    outputs: Callable[[str], bytes] | None = None   # bytes to digest besides stdout
    check: Callable[[int, str], list[str]] = lambda rc, out: []

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def digest(self, stdout: str) -> str:
        h = hashlib.sha256(stdout.encode())
        if self.outputs is not None:
            h.update(self.outputs(stdout))
        return h.hexdigest()


@dataclass
class Plan:
    units: list[Callable[[], None]]   # set-up units, run in order
    rounds: list[list[Job]]           # cycled by the timed window
    warm_up: Callable[[], None] = lambda: None   # run once after set-up, untimed
    notes: dict = field(default_factory=dict)


def sub_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(n)]


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _write_chunk(spec: corpus.CorpusSpec, out_dir: Path, prefix: str = "instance") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, inst in enumerate(corpus.generate(spec)):
        corpus.write_instance(inst, out_dir / f"{prefix}_{k:04d}.evcs")


def _corpus_files(path: Path) -> list[Path]:
    return sorted(p for p in path.iterdir() if p.suffix == ".evcs")


def _warm_up(argv: list[str], ok_codes=(0,)) -> None:
    """Run one CLI command, untimed, so that first-call costs stay out of the window."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    if rc not in ok_codes:
        raise RuntimeError(f"warm-up {' '.join(argv)} exited {rc}: {err.getvalue()}")


# -- gen-reference -----------------------------------------------------------

def check_generated(files: list[Path], expected: int) -> list[str]:
    """Each file reads back, validates, is feasible at its power and not at 0.999x."""
    problems = []
    if len(files) != expected:
        problems.append(f"{len(files)} files, expected {expected}")
    for path in files:
        inst = corpus.read_instance(path)
        bad = validate(inst)
        power = inst.power.at(0)
        if bad:
            problems.append(f"{path.name}: {bad[0].code}")
        elif not feasibility.offline_feasible(inst)[0]:
            problems.append(f"{path.name}: infeasible at its own power {power!r}")
        elif feasibility.offline_feasible(inst, power_override=0.999 * power)[0]:
            problems.append(f"{path.name}: still feasible at 0.999 x {power!r}")
    return problems


def gen_reference(seed: int, work: Path, smoke: bool) -> Plan:
    count = 3 if smoke else CHUNK
    seeds = sub_seeds(seed, 2 if smoke else 16)
    units, rounds = [], []
    for j, s in enumerate(seeds):
        spec_file, out_dir = work / f"spec_{j:02d}.json", work / f"out_{j:02d}"
        spec = dataclasses.replace(corpus.reference_spec(), count=count, seed=s)

        units.append(lambda spec=spec, spec_file=spec_file:
                     spec_file.write_text(json.dumps(dataclasses.asdict(spec))))

        def outputs(_, out_dir=out_dir):
            return b"".join(p.read_bytes() for p in _corpus_files(out_dir))

        def check(rc, out, out_dir=out_dir):
            return check_generated(_corpus_files(out_dir), count)

        rounds.append([Job("gen", ["gen", str(spec_file), str(out_dir)], count,
                           outputs=outputs, check=check)])

    def warm_up():
        """Generate the first two instances of the shipped reference spec."""
        small = work / "warm.json"
        small.write_text(json.dumps(dataclasses.asdict(WARM_UP_SPEC)))
        _warm_up(["gen", str(small), str(work / "warm")])

    return Plan(units, rounds, warm_up, {"instances_per_job": count, "specs": len(seeds)})


# -- sweep-reference ---------------------------------------------------------

def check_sweep(chunk_dir: Path, policy: str, out: str, sample: list[int]) -> list[str]:
    """The report has one row over the whole chunk, and on a sample of instances
    each `simulate` verdict agrees with `validate_schedule` of its schedule."""
    files = _corpus_files(chunk_dir)
    rows = csv_rows(out)
    problems = []
    if len(rows) != 1 or rows[0]["algorithm"] != policy \
            or int(rows[0]["instances"]) != len(files) \
            or not 0.0 <= float(rows[0]["success_rate"]) <= 1.0:
        problems.append(f"unexpected sweep report {rows!r}")
    for k in sample:
        inst = corpus.read_instance(files[k])
        schedule, verdict = simulator.simulate(inst, policy)
        checked = feasibility.validate_schedule(inst, schedule)
        if checked.feasible != verdict.feasible:
            problems.append(f"{files[k].name} {policy}: simulate says {verdict.feasible}, "
                            f"validate_schedule says {checked.feasible}")
    return problems


def sweep_reference(seed: int, work: Path, smoke: bool) -> Plan:
    count = 3 if smoke else CHUNK
    seeds = sub_seeds(seed, 2 if smoke else 8)
    rng = random.Random(seed)
    units, rounds = [], []
    for c, s in enumerate(seeds):
        chunk_dir = work / f"chunk_{c}"
        spec = dataclasses.replace(corpus.reference_spec(), count=count, seed=s)
        units.append(lambda spec=spec, chunk_dir=chunk_dir: _write_chunk(spec, chunk_dir))
        sample = sorted(rng.sample(range(count), min(3, count)))
        rounds.append([
            Job(f"sweep {p}", ["sweep", str(chunk_dir), "--algs", p], count, policy=p,
                check=lambda rc, out, p=p, d=chunk_dir, smp=sample: check_sweep(d, p, out, smp))
            for p in SWEEP_POLICIES])
    return Plan(units, rounds, notes={"instances_per_job": count, "chunks": len(seeds)})


# -- augment-reference -------------------------------------------------------

def check_augment(corpus_dir: Path, policy: str, mode_name: str, out: str) -> list[str]:
    """All-feasible at the reported epsilon, and not at epsilon - 2 EPS_TOL."""
    rows = csv_rows(out)
    if len(rows) != 1 or rows[0]["algorithm"] != policy:
        return [f"unexpected augment report {rows!r}"]
    try:
        eps = float(rows[0]["min_eps"])
    except ValueError:
        return [f"{policy}/{mode_name}: no finite epsilon ({rows[0]['min_eps']})"]
    instances = [corpus.read_instance(p) for p in _corpus_files(corpus_dir)]
    mode = AugmentationMode(mode_name)

    def all_feasible(e):
        return all(simulator.run_feasibility(
            [augmentation.augment(i, mode, e) for i in instances], policy))

    problems = []
    if not all_feasible(eps):
        problems.append(f"{policy}/{mode_name}: corpus not all feasible at eps={eps!r}")
    if eps - 2 * EPS_TOL >= 0.0 and all_feasible(eps - 2 * EPS_TOL):
        problems.append(f"{policy}/{mode_name}: already all feasible at eps-2tol")
    return problems


def augment_reference(seed: int, work: Path, smoke: bool) -> Plan:
    count = 4 if smoke else CHUNK
    seeds = sub_seeds(seed, 1 if smoke else 4)
    corpus_dir = work / "corpus"
    units = []
    for u, s in enumerate(seeds):
        spec = dataclasses.replace(corpus.reference_spec(), count=count, seed=s)
        units.append(lambda spec=spec, u=u: _write_chunk(spec, corpus_dir, f"u{u}"))
    n = count * len(seeds)
    round_ = [
        Job(f"augment {p} {m}", ["augment", str(corpus_dir), "--algs", p, "--mode", m], n,
            policy=p, check=lambda rc, out, p=p, m=m: check_augment(corpus_dir, p, m, out))
        for p, m in AUGMENT_PAIRS]
    return Plan(units, [round_], notes={"instances_per_job": n})


# -- day-scale ---------------------------------------------------------------

def day_instance(seed: int, smoke: bool) -> Instance:
    """One day of one-minute slots with 150-200 sessions and contended power.

    Sessions come from the corpus sampler on `reference_spec()` stretched to
    one-minute slots: its sojourn and laxity targets in slots are multiplied
    by 12, so the shape in minutes is the reference one.  Like `corpus.generate`
    on fewer than 50 instances, the laxity fit is not refined.  The station
    power is fixed at the mean energy demand per slot over the horizon
    rather than pinned at P*, which leaves most slots contended.  Smoke
    instances keep 12-minute slots and have 15-20 sessions.
    """
    ref = corpus.reference_spec()
    k, evs = (1, (15, 20)) if smoke else (12, (150, 200))
    spec = dataclasses.replace(
        ref, count=1, seed=seed, evs_min=evs[0], evs_max=evs[1],
        sojourn_min=k * ref.sojourn_min, sojourn_mean=k * ref.sojourn_mean,
        sojourn_max=k * ref.sojourn_max, laxity_min=k * ref.laxity_min,
        laxity_mean=k * ref.laxity_mean, laxity_max=k * ref.laxity_max,
        slot_minutes=ref.slot_minutes / k)
    [sessions] = corpus._sample_corpus_sessions(
        spec,
        corpus._TruncatedLogNormal(spec.sojourn_min, spec.sojourn_mean, spec.sojourn_max),
        corpus._TruncatedLogNormal(max(spec.laxity_min, 1e-3), spec.laxity_mean,
                                   spec.laxity_max))
    horizon = max(s.departure for s in sessions)
    return Instance(tuple(sessions), ConstantPower(sum(s.energy for s in sessions) / horizon))


def schedule_from_csv(inst: Instance, out: str) -> Schedule:
    rows = {s.id: [0.0] * inst.horizon for s in inst.sessions}
    for row in csv_rows(out):
        if row["session"] != "__verdict__":
            rows[row["session"]][int(row["slot"])] = float(row["rate"])
    return Schedule(inst.horizon, {sid: tuple(r) for sid, r in rows.items()})


def check_day_run(path: Path, rc: int, out: str) -> list[str]:
    """The exit code agrees with `validate_schedule` on the rates in the CSV."""
    inst = corpus.read_instance(path)
    verdict = feasibility.validate_schedule(inst, schedule_from_csv(inst, out))
    if verdict.feasible != (rc == 0):
        return [f"{path.name}: exit {rc} but validate_schedule says {verdict.feasible}"]
    return []


def day_scale(seed: int, work: Path, smoke: bool) -> Plan:
    count = 1 if smoke else 6
    units, rounds = [], []
    paths = [work / f"day_{i}.evcs" for i in range(count)]
    for s, path in zip(sub_seeds(seed, count), paths):
        units.append(lambda s=s, path=path: corpus.write_instance(day_instance(s, smoke), path))
        rounds.append([
            Job(f"run {p}", ["run", str(path), "--alg", p], 1, policy=p, ok_codes=(0, 1),
                check=lambda rc, out, path=path: check_day_run(path, rc, out))
            for p in DAY_POLICIES])
    return Plan(units, rounds, lambda: _warm_up(["run", str(paths[0]), "--alg", "edf"], (0, 1)),
                {"instances": count})


WORKLOADS = {
    "gen-reference": gen_reference,
    "sweep-reference": sweep_reference,
    "augment-reference": augment_reference,
    "day-scale": day_scale,
}
