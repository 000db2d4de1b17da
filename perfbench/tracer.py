"""Outside-in tracing of the evcs layers.

Nothing inside `src/` knows about tracing.  `Tracer.install()` replaces each
public function with a wrapper at the place it is looked up (module globals,
names imported by other modules, class attributes, the policy table) and
puts the originals back on exit.  Spans are kept in memory as
`[name, start, end, parent_index, run_id]`; hot calls that would drown the
run in spans (`Instance.session`) are only counted.
"""
from __future__ import annotations

import functools
import gzip
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

POLICY_NAMES = ("sllf", "llf", "edf", "es", "rep", "olp")

#: per-layer metrics the traced run reports, with their units, in output order
LAYER_METRICS = (
    ("netflow.max_flow.calls", "count"),
    ("netflow.max_flow.s", "s"),
    ("netflow.arcs_per_max_flow", "arcs/call"),
    ("feasibility.min_power_capacity.calls", "count"),
    ("feasibility.min_power_capacity.s", "s"),
    ("feasibility.min_power_capacity.self_s", "s"),
    ("feasibility.max_flows_per_min_power", "count"),
    ("feasibility.offline_feasible.calls", "count"),
    ("feasibility.offline_feasible.s", "s"),
    ("feasibility.offline_feasible.self_s", "s"),
    ("corpus.generate.self_s", "s"),
    ("corpus.oracle_probes_per_instance", "ratio"),
    ("corpus.read_instance.s", "s"),
    ("corpus.write_instance.s", "s"),
    *((f"schedulers.{p}.{m}", u) for p in POLICY_NAMES
      for m, u in (("decisions", "count"), ("s", "s"), ("us_p50", "us"), ("us_p99", "us"))),
    ("schedulers.sllf.bisect_iterations", "count"),
    ("schedulers.olp.fallback_ratio", "ratio"),
    ("schedulers.olp.max_flows_per_decision", "ratio"),
    ("simulator.simulate.calls", "count"),
    ("simulator.simulate.s", "s"),
    ("simulator.simulate.ms_p50", "ms"),
    ("simulator.simulate.ms_p99", "ms"),
    ("simulator.simulate.self_s", "s"),
    ("dynamics.step.calls", "count"),
    ("dynamics.step.s", "s"),
    ("dynamics.schedule_metrics.s", "s"),
    ("model.session_lookups", "count"),
    ("model.validate.s", "s"),
    ("augmentation.min_feasible_eps.calls", "count"),
    ("augmentation.min_feasible_eps.s", "s"),
    ("augmentation.simulations_per_search", "count"),
    ("augmentation.augment.s", "s"),
    ("cli.main.self_s", "s"),
)

#: counts that are a pure function of the inputs and must repeat exactly
EXACT_COUNTS = (
    "feasibility.max_flows_per_min_power",
    "augmentation.simulations_per_search",
    *(f"schedulers.{p}.decisions" for p in POLICY_NAMES),
    "model.session_lookups",
)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr, name, on_result=None):
        """Record a span named `name` around every call of `owner.attr`."""
        orig = _get(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        self._undo.append((owner, attr, orig))
        _set(owner, attr, traced)

    def count(self, owner, attr, name):
        """Count calls of `owner.attr` without recording spans."""
        orig = _get(owner, attr)
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self._undo.append((owner, attr, orig))
        _set(owner, attr, counted)

    @contextmanager
    def install(self):
        """Wrap every traced evcs entry point; restore the originals on exit."""
        from evcs import augmentation, cli, corpus, feasibility, simulator
        from evcs.dynamics import Schedule
        from evcs.model import Instance
        from evcs.netflow import FlowGraph
        from evcs.schedulers import POLICIES

        counts = self.counts

        def arcs(args, _):
            counts["netflow.arcs"] += len(args[0].to) // 2

        def generated(_, result):
            counts["corpus.instances_generated"] += len(result)

        def sllf_stats(_, decision):
            counts["schedulers.sllf.bisect_iterations"] += \
                decision.diagnostics.get("bisect_iterations", 0)

        def olp_stats(_, decision):
            counts["schedulers.olp.fallbacks"] += bool(decision.diagnostics.get("olp_fallback"))

        try:
            self.wrap(cli, "main", "cli.main")
            self.wrap(corpus, "generate", "corpus.generate", generated)
            self.wrap(corpus, "read_instance", "corpus.read_instance")
            self.wrap(corpus, "write_instance", "corpus.write_instance")
            for mod in (cli, corpus):
                self.wrap(mod, "validate", "model.validate")
            for mod in (feasibility, corpus):
                self.wrap(mod, "min_power_capacity", "feasibility.min_power_capacity")
                self.wrap(mod, "offline_feasible", "feasibility.offline_feasible")
            self.wrap(FlowGraph, "max_flow", "netflow.max_flow", arcs)
            self.wrap(simulator, "simulate", "simulator.simulate")
            self.wrap(simulator, "step", "dynamics.step")
            for p in POLICY_NAMES:
                hook = {"sllf": sllf_stats, "olp": olp_stats}.get(p)
                self.wrap(POLICIES, p, f"schedulers.{p}", hook)
            self.wrap(Schedule, "total_variation", "dynamics.schedule_metrics")
            self.wrap(Schedule, "switch_count", "dynamics.schedule_metrics")
            self.wrap(augmentation, "min_feasible_eps", "augmentation.min_feasible_eps")
            self.wrap(augmentation, "augment", "augmentation.augment")
            self.count(Instance, "session", "model.session_lookups")
            yield self
        finally:
            while self._undo:
                _set(*self._undo.pop())

    def write(self, path) -> None:
        """Write the spans gzipped, one tab-separated line per span: id, name,
        start and end in nanoseconds after the first span, parent id (-1 for
        none), run id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\trun\n")
            for k, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{k}\t{name}\t{round((start - origin) * 1e9)}\t"
                         f"{round((end - origin) * 1e9)}\t{parent}\t{run}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for k, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(k)
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children.get(k, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every LAYER_METRICS value from one traced run's spans and counts."""
    spans = tracer.spans
    selfs = self_times(spans)
    durs = defaultdict(list)
    self_sum = Counter()
    for span, own in zip(spans, selfs):
        durs[span[0]].append(span[2] - span[1])
        self_sum[span[0]] += own

    nearest = {}

    def under(name, ancestor, direct=False):
        """How many `name` spans have an `ancestor` span above them (as parent, if direct)."""
        if direct:
            return sum(1 for span in spans
                       if span[0] == name and span[3] >= 0 and spans[span[3]][0] == ancestor)
        if ancestor not in nearest:
            # parents are recorded before their children, so one forward pass
            # finds every span's nearest `ancestor`
            found = [-1] * len(spans)
            for k, span in enumerate(spans):
                parent = span[3]
                if parent >= 0:
                    found[k] = parent if spans[parent][0] == ancestor else found[parent]
            nearest[ancestor] = found
        found = nearest[ancestor]
        return sum(1 for k, span in enumerate(spans) if span[0] == name and found[k] >= 0)

    c = tracer.counts
    n = {name: len(d) for name, d in durs.items()}
    s = {name: sum(d) for name, d in durs.items()}
    m = {
        "netflow.max_flow.calls": n.get("netflow.max_flow", 0),
        "netflow.max_flow.s": s.get("netflow.max_flow", 0.0),
        "netflow.arcs_per_max_flow": _ratio(c["netflow.arcs"], n.get("netflow.max_flow", 0)),
        "feasibility.max_flows_per_min_power": _ratio(
            under("netflow.max_flow", "feasibility.min_power_capacity"),
            n.get("feasibility.min_power_capacity", 0)),
        "corpus.generate.self_s": self_sum["corpus.generate"],
        "corpus.oracle_probes_per_instance": _ratio(
            under("feasibility.offline_feasible", "corpus.generate", direct=True),
            c["corpus.instances_generated"]),
        "corpus.read_instance.s": s.get("corpus.read_instance", 0.0),
        "corpus.write_instance.s": s.get("corpus.write_instance", 0.0),
        "schedulers.sllf.bisect_iterations": c["schedulers.sllf.bisect_iterations"],
        "schedulers.olp.fallback_ratio": _ratio(c["schedulers.olp.fallbacks"],
                                                n.get("schedulers.olp", 0)),
        "schedulers.olp.max_flows_per_decision": _ratio(
            under("netflow.max_flow", "schedulers.olp", direct=True),
            n.get("schedulers.olp", 0)),
        "simulator.simulate.ms_p50": 1e3 * percentile(durs["simulator.simulate"], 50),
        "simulator.simulate.ms_p99": 1e3 * percentile(durs["simulator.simulate"], 99),
        "dynamics.step.calls": n.get("dynamics.step", 0),
        "dynamics.step.s": s.get("dynamics.step", 0.0),
        "dynamics.schedule_metrics.s": s.get("dynamics.schedule_metrics", 0.0),
        "model.session_lookups": c["model.session_lookups"],
        "model.validate.s": s.get("model.validate", 0.0),
        "augmentation.simulations_per_search": _ratio(
            under("simulator.simulate", "augmentation.min_feasible_eps"),
            n.get("augmentation.min_feasible_eps", 0)),
        "augmentation.augment.s": s.get("augmentation.augment", 0.0),
        "cli.main.self_s": self_sum["cli.main"],
    }
    for layer in ("feasibility.min_power_capacity", "feasibility.offline_feasible",
                  "simulator.simulate", "augmentation.min_feasible_eps"):
        m[f"{layer}.calls"] = n.get(layer, 0)
        m[f"{layer}.s"] = s.get(layer, 0.0)
        m[f"{layer}.self_s"] = self_sum[layer]
    for p in POLICY_NAMES:
        name = f"schedulers.{p}"
        m[f"{name}.decisions"] = n.get(name, 0)
        m[f"{name}.s"] = s.get(name, 0.0)
        m[f"{name}.us_p50"] = 1e6 * percentile(durs[name], 50)
        m[f"{name}.us_p99"] = 1e6 * percentile(durs[name], 99)
    return {name: m[name] for name, _ in LAYER_METRICS}
