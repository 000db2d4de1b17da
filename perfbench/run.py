"""evcs benchmark: drives the public CLI in-process on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; evcs is imported from its `src/`.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  The line before it
records the environment and per-command detail.  Scratch inputs live under
`.perfbench_out/` and are removed when the run ends; spans of traced runs
and the records used to check determinism across runs stay there.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")

END_TO_END = (
    ("setup_s", "s"),
    ("instance_jobs_per_s", "1/s"),
    ("command_s_geomean", "s"),
    ("peak_rss_mb", "MB"),
)


def import_evcs():
    """Import evcs from this checkout's `src/`, never from anywhere else."""
    if not (SRC / "evcs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no evcs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import evcs
    if Path(evcs.__file__).resolve().parent != SRC / "evcs":
        sys.exit(f"perfbench: evcs imported from {evcs.__file__}, not from {SRC}")


#: how often the speed probe samples the host while a timed call runs
SAMPLE_INTERVAL_S = 0.01

#: the probe kernel's time at reference speed: one uncontended core of the
#: 2-core Intel Xeon host the bounds were set on, under Python 3.11
KERNEL_REF_S = 0.0002


def kernel() -> float:
    """Fixed pure-Python work whose time tracks the interpreter's current speed."""
    table = {i: float(i) for i in range(64)}
    total = 0.0
    for _ in range(10):
        for v in table.values():
            total += min(max(v * 0.5 - 3.0, 0.0), 7.0)
    return total


def timed(fn):
    """(result, wall seconds, seconds at reference speed) of one call of `fn`.

    The host's cores are shared, and its speed swings by up to twice within
    seconds.  While `fn` runs, a timer signal runs the probe kernel every
    SAMPLE_INTERVAL_S; the kernel also runs once before and once after.  The
    probe's own time is taken out of the call's time, and the rest is divided
    by the mean slowdown the probe saw.
    """
    samples = []

    def sample(*_):
        start = perf_counter()
        kernel()
        samples.append(perf_counter() - start)

    sample()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start - sum(samples[1:])
        signal.signal(signal.SIGALRM, previous)
    sample()
    return result, seconds, seconds * KERNEL_REF_S / statistics.fmean(samples)


@dataclass
class Outcome:
    job: object
    rc: int | None
    out: str
    err: str
    seconds: float
    ref_seconds: float


def execute(job) -> Outcome:
    """Run one CLI command in this process with its output captured."""
    from evcs import cli
    out, err = io.StringIO(), io.StringIO()

    def call():
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return cli.main(job.argv)
            except Exception:
                traceback.print_exc()
                return None

    rc, seconds, ref_seconds = timed(call)
    return Outcome(job, rc, out.getvalue(), err.getvalue(), seconds, ref_seconds)


#: set-up passes repeat until this many seconds have passed (at least one pass)
SETUP_REPEAT_S = 1.0


def setup_passes(units) -> list[tuple[float, float]]:
    """(wall, reference) seconds of each unit, over repeated passes of the set-up.

    A gen unit writes one small spec file in about 0.1 ms, and the first
    write of each file varied tenfold between runs.  Repeating the passes
    for a second gives the median thousands of samples; the corpus
    workloads, whose one pass takes seconds, still set up once.
    """
    times, start = [], perf_counter()
    while not times or perf_counter() - start < SETUP_REPEAT_S:
        times += [timed(unit)[1:] for unit in units]
    return times


def run_setup(args) -> list[Outcome]:
    """Time the set-up in a fresh child process.

    Set-up builds whole corpora; doing it in a child keeps that memory out
    of the peak RSS of the process that runs the timed commands.  The child
    builds the same plan from the same seed and runs `setup_passes`.  A
    forked child would share this process's pages and pay for copying
    them, which made sub-millisecond units swing by a factor of two.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only", *(["--smoke"] if args.smoke else [])]
    p = subprocess.run(argv, capture_output=True, text=True)
    if p.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{p.stderr}")
    return [Outcome(None, 0, "", "", seconds, ref_seconds)
            for seconds, ref_seconds in json.loads(p.stdout.splitlines()[-1])]


class Judge:
    """Checks outcomes as they arrive; a repeated command must repeat its output.

    Only digests stay in memory.  Each distinct output is written once under
    `out_dir` and read back by `finish()`, which checks it after the timed
    work.  `record` holds the digests and exact counts of earlier runs with
    the same workload and seed in this checkout; a mismatch with them is a
    failure too.
    """

    def __init__(self, record: dict, out_dir: Path):
        self.record = record
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.digests: dict[str, str] = {}
        self.pending: dict[tuple[str, str], tuple] = {}
        self.outcomes_of: dict[tuple[str, str], list[int]] = defaultdict(list)
        self.bad: set[int] = set()
        self.problems: list[str] = []
        self.attempted = 0

    @property
    def failed(self) -> int:
        return len(self.bad)

    def _fail(self, ids, key: str, problems: list[str]) -> None:
        if problems:
            self.bad.update(ids)
            self.problems.extend(f"{key}: {p}" for p in problems)

    def judge(self, o: Outcome) -> None:
        job, n = o.job, self.attempted
        self.attempted += 1
        if o.rc not in job.ok_codes:
            self._fail([n], job.key, [f"exit {o.rc}: {o.err.strip()[-300:]}"])
            return
        try:
            digest = job.digest(o.out)
        except Exception:
            self._fail([n], job.key, [traceback.format_exc(limit=3)])
            return
        for seen in (self.digests, self.record.setdefault("digests", {})):
            if seen.setdefault(job.key, digest) != digest:
                self._fail([n], job.key, ["output differs from an earlier run of it"])
        if (job.key, digest) not in self.pending:
            path = self.out_dir / f"{len(self.pending)}.out"
            path.write_text(o.out)
            self.pending[job.key, digest] = (job, o.rc, path)
        self.outcomes_of[job.key, digest].append(n)

    def finish(self) -> None:
        """Check each distinct output once; its problems count for every outcome with it."""
        for (key, digest), (job, rc, path) in self.pending.items():
            try:
                problems = job.check(rc, path.read_text())
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            self._fail(self.outcomes_of[key, digest], key, problems)
        self.pending.clear()

    def counts(self, values: dict) -> None:
        """Exact counts must equal those of earlier runs with the same seed."""
        seen = self.record.setdefault("counts", {})
        n = self.attempted
        self.attempted += 1
        self._fail([n], "exact counts", [
            f"{name} = {value}, earlier {seen[name]}"
            for name, value in values.items() if seen.setdefault(name, value) != value])


def timed_window(plan, seconds: float, judge: Judge) -> dict[str, list[Outcome]]:
    """Run every round once, then keep cycling through them until `seconds` have passed.

    Each round covers every kind of command once, so stopping between rounds
    keeps the kinds balanced.  Output is dropped once judged, so memory does
    not grow with the number of rounds.  The outputs are checked later, by
    `judge.finish()`.
    """
    runs = defaultdict(list)
    deadline = perf_counter() + seconds
    k = 0
    while k < len(plan.rounds) or perf_counter() < deadline:
        for job in plan.rounds[k % len(plan.rounds)]:
            o = execute(job)
            judge.judge(o)
            o.out = o.err = ""
            runs[job.key].append(o)
        k += 1
    return runs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(plan, runs, setup, peak_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics from the median time of each command over its runs.

    Times are at reference speed; the same metrics from plain wall times are
    kept in the detail line.  `peak_mb` is the peak RSS at the end of the
    timed window, before the checks ran.
    """
    def metrics_from(attr):
        total, size, count = defaultdict(float), defaultdict(int), defaultdict(int)
        for round_ in plan.rounds:
            for job in round_:
                total[job.kind] += statistics.median(getattr(o, attr) for o in runs[job.key])
                size[job.kind] += job.instances
                count[job.kind] += 1
        per_pair = [total[k] / size[k] for k in total]
        command = {k: total[k] / count[k] for k in total}
        return {
            "setup_s": statistics.median(getattr(o, attr) for o in setup),
            "instance_jobs_per_s": len(per_pair) / sum(per_pair),
            "command_s_geomean": math.exp(statistics.fmean(math.log(v)
                                                           for v in command.values())),
            "peak_rss_mb": peak_mb,
        }, command

    metrics, command = metrics_from("ref_seconds")
    wall, wall_command = metrics_from("seconds")
    all_runs = [o for os_ in runs.values() for o in os_]
    detail = {
        "runs": len(all_runs),
        "mean_slowdown": sum(o.seconds for o in all_runs) / sum(o.ref_seconds for o in all_runs),
        "wall_metrics": wall,
        "commands": {k: {"ref_s": command[k], "wall_s": wall_command[k]} for k in command},
    }
    return metrics, detail


def traced_round(plan, judge: Judge, spans_path: Path) -> tuple[dict, dict]:
    """Run the first round untraced, then traced; per-layer metrics from the spans.

    Span times are wall times; `trace.slowdown` says how far the host ran
    below reference speed while they were taken.  The command times
    (`policy_s.*`, `trace.*_s`) are at reference speed like the end-to-end ones.
    """
    jobs = plan.rounds[0]
    untraced = [execute(job) for job in jobs]
    tr = tracer.Tracer()
    traced = []
    with tr.install():
        for k, job in enumerate(jobs):
            tr.run_id = k
            traced.append(execute(job))
    for o in untraced + traced:
        judge.judge(o)
    judge.finish()
    metrics = tracer.layer_metrics(tr)
    judge.counts({name: metrics[name] for name in tracer.EXACT_COUNTS})
    for p in tracer.POLICY_NAMES:
        metrics[f"policy_s.{p}"] = sum(o.ref_seconds for o in untraced if o.job.policy == p)
    metrics["trace.untraced_s"] = sum(o.ref_seconds for o in untraced)
    metrics["trace.overhead_s"] = sum(o.ref_seconds for o in traced) - metrics["trace.untraced_s"]
    metrics["trace.slowdown"] = sum(o.seconds for o in traced) / sum(o.ref_seconds for o in traced)
    tr.write(spans_path)
    detail = {"runs": len(jobs), "commands": {o.job.kind: {"untraced_s": o.seconds,
                                                     "traced_s": t.seconds}
                                        for o, t in zip(untraced, traced)}}
    return metrics, detail


def per_layer_units() -> list[tuple[str, str]]:
    return [*tracer.LAYER_METRICS, *((f"policy_s.{p}", "s") for p in tracer.POLICY_NAMES),
            ("trace.untraced_s", "s"), ("trace.overhead_s", "s"), ("trace.slowdown", "ratio")]


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git_sha": git_sha(), "source": source_digest(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}


def source_digest() -> str:
    """Digest of the evcs sources, so that records are only compared within one version."""
    h = hashlib.sha256()
    for path in sorted((SRC / "evcs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the checkout, read from `.git` without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_evcs()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"valid: {', '.join(workloads.WORKLOADS)}")
    os.environ.pop("EVCS_THREADS", None)
    os.chdir(ROOT)
    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    work = OUT / "work" / tag
    if args.setup_only:
        plan = workloads.WORKLOADS[args.workload](args.seed, work, args.smoke)
        print(json.dumps(setup_passes(plan.units)))
        return 0
    record_path = OUT / "record" / f"{tag}-{source_digest()}.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    judge = Judge(record, work / "outputs")
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, work, args.smoke)
        setup = run_setup(args)
        plan.warm_up()
        if args.trace:
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            metrics, detail = traced_round(plan, judge, OUT / "spans" / f"{tag}.tsv.gz")
            units = per_layer_units()
        else:
            runs = timed_window(plan, args.seconds, judge)
            peak_mb = peak_rss_mb()
            judge.finish()
            metrics, detail = end_to_end(plan, runs, setup, peak_mb)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    for problem in judge.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"env": environment(args), "plan": plan.notes,
                      "setup_samples": len(setup), **detail}))
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
