"""Command-line entry point: generate, check, run, sweep, augment.

Reports are CSV by default (fixed column sets per command) or JSON with
identical values under --json.  Exit codes: 0 success, 1 an infeasible
`run`, 2 usage or parse errors.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

from . import augmentation, corpus, dynamics, feasibility, simulator
from .augmentation import AugmentationMode
from .model import ContractError, validate
from .schedulers import POLICIES

#: minimum augmentations reported on the unpublished full production traces;
#: reference annotations only, not reproducible from shipped corpora
FULL_DATA_REFERENCE_EPS = {
    "rep": {"power": 4.61, "power-rate": 4.61},
    "es": {"power": 3.65, "power-rate": 3.24},
    "edf": {"power": 1.39, "power-rate": 0.54},
    "llf": {"power": 0.07, "power-rate": 0.05},
    "olp": {"power": 0.28, "power-rate": 0.28},
    "sllf": {"power": 0.07, "power-rate": 0.05},
}

REPORT_SCHEMA = "evcs-report-v1"


def _emit(rows: list[tuple], columns: list[str], as_json: bool) -> None:
    """Print rows, each a tuple in column order, as CSV or as JSON objects."""
    if as_json:
        records = [dict(zip(columns, row)) for row in rows]
        print(json.dumps({"schema": REPORT_SCHEMA, "rows": records}, indent=2))
        return
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(columns)
    writer.writerows(rows)
    sys.stdout.write(out.getvalue())


def _read_valid(path):
    """The instance in file `path`; exit 2 naming its first violation if it has one."""
    inst = corpus.read_instance(path)
    problems = validate(inst)
    if problems:
        raise SystemExit2(f"{path}: invalid instance: {problems[0]}")
    return inst


def _load_corpus(path: Path):
    return [_read_valid(p) for p in sorted(p for p in path.iterdir() if p.suffix == ".evcs")]


def _parse_algs(raw: str) -> list[str]:
    algs = [a.strip() for a in raw.split(",") if a.strip()]
    if not algs:
        raise SystemExit2(f"--algs names no algorithm; valid: {', '.join(sorted(POLICIES))}")
    for k, a in enumerate(algs):
        if a not in POLICIES:
            raise SystemExit2(f"unknown algorithm {a!r}; valid: {', '.join(sorted(POLICIES))}")
        if a in algs[:k]:
            raise SystemExit2(f"--algs names {a} twice")
    return algs


class SystemExit2(Exception):
    """Usage-level failure, rendered as exit code 2."""


def cmd_gen(args) -> int:
    try:
        with open(args.spec_file, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise SystemExit2(f"{args.spec_file}: byte {exc.start} is not UTF-8") from None
    if not isinstance(raw, dict):
        raise corpus.GenerationError(f"spec must be a JSON object, not {type(raw).__name__}")
    known = {f.name for f in dataclasses.fields(corpus.CorpusSpec)}
    unknown = set(raw) - known
    if unknown:
        raise SystemExit2(f"unknown spec fields: {', '.join(sorted(unknown))}")
    if "count" not in raw:
        raise corpus.GenerationError("spec field 'count' is required")
    spec = corpus.CorpusSpec(**raw)
    instances = corpus.generate(spec)
    out_dir = Path(args.out_dir)
    paths = [out_dir / f"instance_{k:04d}.evcs" for k in range(len(instances))]
    if out_dir.is_dir():
        # sweep and augment read every .evcs file, so a leftover one would join the corpus
        stale = sorted({p for p in out_dir.iterdir() if p.suffix == ".evcs"} - set(paths))
        if stale:
            raise SystemExit2(f"{stale[0]} is not one of the {len(instances)} files this "
                              f"spec writes; nothing written")
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, inst in zip(paths, instances):
        corpus.write_instance(inst, path)
    print(f"wrote {len(instances)} instances to {out_dir}")
    return 0


def cmd_check(args) -> int:
    inst = corpus.read_instance(args.instance_file)
    problems = validate(inst)
    feasible = None
    p_star = None
    if not problems:
        feasible = feasibility.is_offline_feasible(inst)
        p_star = feasibility.min_power_capacity(inst)
    rows = [(str(args.instance_file), ";".join(f"{v.code}:{v.subject}" for v in problems),
             feasible, p_star)]
    _emit(rows, ["file", "violations", "offline_feasible", "min_power_capacity"], args.json)
    return 0


def cmd_run(args) -> int:
    inst = _read_valid(args.instance_file)
    schedule, verdict = simulator.simulate(inst, args.alg)
    columns, last = ["session", "slot", "rate"], ("__verdict__", -1, "")
    if args.json:
        rows = [(sid, t, r) for sid, row in schedule.rates.items()
                for t, r in enumerate(row, schedule.starts[sid]) if r != 0.0]
        _emit(rows + [last], columns, True)
    else:
        sys.stdout.write(_run_csv(schedule, columns, last))
    oscillation, switches = schedule._metrics()
    ratio, norm_lax = simulator.instance_metrics(inst)
    print(f"# alg={args.alg} feasible={verdict.feasible} "
          f"min_laxity={dynamics.min_laxity(inst, schedule):.6g} oscillation={oscillation:.6g} "
          f"switches={switches} sojourn_ratio={ratio:.6g} "
          f"min_norm_laxity={norm_lax:.6g}", file=sys.stderr)
    return 0 if verdict.feasible else 1


def _csv_line(row) -> str:
    out = io.StringIO()
    csv.writer(out).writerow(row)
    return out.getvalue()


def _run_csv(schedule, columns: list[str], last: tuple) -> str:
    """The CSV `_emit` writes for a run's nonzero rates and then `last`, with
    one `csv.writer` call per session instead of per row: the writer quotes
    the id, and each row appends the slot and the rate's `repr`, as the
    writer renders an int and a float.  Equal nonzero floats have equal
    `repr`s, so a rate that repeats the one before it reuses its text."""
    parts = [_csv_line(columns)]
    for sid, row in schedule.rates.items():
        prefix = _csv_line((sid, ""))[:-2]  # the quoted id and its comma, without "\r\n"
        lines, rate, text = [], None, ""
        for t, r in enumerate(row, schedule.starts[sid]):
            if r != 0.0:
                if r != rate:
                    rate, text = r, f"{r!r}\r\n"
                lines.append(f"{prefix}{t},{text}")
        parts.append("".join(lines))
    parts.append(_csv_line(last))
    return "".join(parts)


def cmd_sweep(args) -> int:
    instances = _load_corpus(Path(args.corpus_dir))
    algs = _parse_algs(args.algs)
    rows = []
    for alg in algs:
        flags = simulator.run_feasibility(instances, alg)
        rows.append((alg, "all", "", "", "", len(instances),
                     sum(flags) / len(flags) if flags else 1.0))
        if args.bin_by:
            idx = 0 if args.bin_by == "sojourn-ratio" else 1
            binned = simulator.binned_success_rates(instances, flags, idx, args.bins)
            for b, (lo, hi, count, rate) in enumerate(binned):
                rows.append((alg, b, args.bin_by, lo, hi, count, rate))
    _emit(rows, ["algorithm", "bin", "metric", "bin_low", "bin_high",
                 "instances", "success_rate"], args.json)
    return 0


def _note_blank(column: str, reason: ContractError) -> None:
    """Say on stderr which hypothesis leaves a report column blank."""
    print(f"note: {column} left blank: {reason}", file=sys.stderr)


def cmd_augment(args) -> int:
    instances = _load_corpus(Path(args.corpus_dir))
    algs = _parse_algs(args.algs)
    mode = AugmentationMode.POWER if args.mode == "power" else AugmentationMode.POWER_AND_RATE
    try:
        t1 = augmentation.theorem1_bound(augmentation.corpus_bound_inputs(instances))
    except ContractError as exc:
        t1 = None
        _note_blank("theorem1_bound", exc)
    try:
        t2 = max((max(augmentation.theorem2_bound(i), 0.0) for i in instances), default=0.0)
    except ContractError as exc:
        t2 = None
        _note_blank("theorem2_bound_max", exc)
    rows = []
    for alg in algs:
        eps = augmentation.min_feasible_eps(instances, alg, mode)
        rows.append((
            alg, args.mode,
            eps if math.isfinite(eps) else f"no finite eps <= {augmentation.EPS_CEILING}",
            t1, t2, FULL_DATA_REFERENCE_EPS[alg][args.mode],
        ))
    _emit(rows, ["algorithm", "mode", "min_eps", "theorem1_bound",
                 "theorem2_bound_max", "full_data_reference_eps"], args.json)
    return 0


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evcs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a corpus from a JSON spec")
    p.add_argument("spec_file")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="validate + offline feasibility + min power")
    p.add_argument("instance_file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="simulate one instance under one algorithm")
    p.add_argument("instance_file")
    p.add_argument("--alg", required=True, choices=sorted(POLICIES))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="success rates over a corpus")
    p.add_argument("corpus_dir")
    p.add_argument("--algs", required=True)
    p.add_argument("--bin-by", choices=["sojourn-ratio", "norm-laxity"])
    p.add_argument("--bins", type=_positive_int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("augment", help="minimum augmentation per algorithm")
    p.add_argument("corpus_dir")
    p.add_argument("--algs", required=True)
    p.add_argument("--mode", required=True, choices=["power", "power-rate"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_augment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (corpus.ParseError, corpus.GenerationError, SystemExit2,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
