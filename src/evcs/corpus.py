"""Synthetic instance generation and the on-disk instance format.

The generator emulates the published per-session statistics (sojourn and
initial-laxity means with hard min/max envelopes) via truncated log-normal
sampling; demands are derived as peak rate times (sojourn - laxity) so the
laxity targets are hit exactly per session.  Every generated instance runs
at its own exact minimum constant power, unpadded, and is checked feasible.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from statistics import NormalDist

from .feasibility import is_offline_feasible, min_power_capacity
from .feasibility import offline_feasible  # noqa: F401  kept: the benchmark's tracer wraps it
from .model import ChargingSession, ConstantPower, Instance, StepwisePower, validate

_STD_NORMAL = NormalDist()

FORMAT_HEADER = "evcs-v1"


class GenerationError(Exception):
    """The corpus spec cannot be realized."""


class ParseError(Exception):
    """An instance file is malformed; the message names line and column."""


#: CorpusSpec fields that take integers; the others take any finite number
_INT_FIELDS = frozenset({"count", "evs_min", "evs_max", "seed"})


@dataclass(frozen=True)
class CorpusSpec:
    count: int
    evs_min: int = 2
    evs_max: int = 8
    sojourn_min: float = 1.0      # slots
    sojourn_mean: float = 12.0
    sojourn_max: float = 60.0
    laxity_min: float = 0.0       # slots, initial laxity targets
    laxity_mean: float = 3.0
    laxity_max: float = 55.0
    rate_min: float = 0.5
    rate_max: float = 2.0
    slot_minutes: float = 12.0    # arrivals fall in the first ceil(720 / slot_minutes) slots
    arrival_gap_floor: float | None = None   # gaps strictly exceed this
    demand_cap: float | None = None          # per-session energy cap
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            kinds = int if f.name in _INT_FIELDS else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                what = "an integer" if kinds is int else "a number"
                raise GenerationError(f"spec field {f.name!r} must be {what}, not {value!r}")
            if not math.isfinite(value):
                raise GenerationError(f"spec field {f.name!r} must be finite, not {value!r}")
        for lo, mid, hi, what in (
            (self.sojourn_min, self.sojourn_mean, self.sojourn_max, "sojourn"),
            (self.laxity_min, self.laxity_mean, self.laxity_max, "laxity"),
        ):
            if not lo <= mid <= hi:
                raise GenerationError(f"{what} targets must satisfy min <= mean <= max")
        if self.count < 0 or self.evs_min < 1 or self.evs_min > self.evs_max:
            raise GenerationError("bad count or EV-count range")
        if not 0 < self.rate_min <= self.rate_max:
            raise GenerationError("bad rate-cap range")
        if self.demand_cap is not None and self.demand_cap <= 0:
            raise GenerationError("demand cap must be positive")


class _TruncatedLogNormal:
    """Log-normal conditioned on [lo, hi], with the location fit to a mean target."""

    def __init__(self, lo: float, mean: float, hi: float):
        lo = max(lo, 1e-3)
        hi = max(hi, lo * (1.0 + 1e-9))
        mean = min(max(mean, lo), hi)
        self.lo, self.hi = lo, hi
        self.sigma = max(0.25, math.log(hi / lo) / 4.0)
        mu_lo, mu_hi = math.log(lo) - 2 * self.sigma, math.log(hi) + 2 * self.sigma
        for _ in range(200):
            mu = 0.5 * (mu_lo + mu_hi)
            if self._truncated_mean(mu) < mean:
                mu_lo = mu
            else:
                mu_hi = mu
        self.mu = 0.5 * (mu_lo + mu_hi)
        self.u_lo = _STD_NORMAL.cdf((math.log(lo) - self.mu) / self.sigma)
        self.u_hi = _STD_NORMAL.cdf((math.log(hi) - self.mu) / self.sigma)

    def _truncated_mean(self, mu: float) -> float:
        s = self.sigma
        a = (math.log(self.lo) - mu) / s
        b = (math.log(self.hi) - mu) / s
        mass = _STD_NORMAL.cdf(b) - _STD_NORMAL.cdf(a)
        if mass <= 1e-300:
            return self.lo if a > 0 else self.hi
        shifted = _STD_NORMAL.cdf(b - s) - _STD_NORMAL.cdf(a - s)
        return math.exp(mu + 0.5 * s * s) * shifted / mass

    def sample(self, rng: random.Random) -> float:
        u = rng.uniform(self.u_lo, self.u_hi)
        u = min(max(u, 1e-12), 1.0 - 1e-12)
        return math.exp(self.mu + self.sigma * _STD_NORMAL.inv_cdf(u))


def _sample_corpus_sessions(spec: CorpusSpec, sojourn_dist, laxity_dist):
    rng = random.Random(spec.seed)
    day_slots = max(int(math.ceil(720.0 / spec.slot_minutes)), int(spec.sojourn_max) + 1)
    corpus_sessions = []
    for _ in range(spec.count):
        n = rng.randint(spec.evs_min, spec.evs_max)
        sessions = []
        arrival = 0
        for k in range(n):
            if spec.arrival_gap_floor is not None:
                if k > 0:
                    arrival += int(spec.arrival_gap_floor) + 1 + _geometric(rng, 0.6)
            else:
                arrival = rng.randrange(0, max(day_slots - int(spec.sojourn_min), 1))
            sojourn = int(round(sojourn_dist.sample(rng)))
            sojourn = min(max(sojourn, max(int(spec.sojourn_min), 1)), int(spec.sojourn_max))
            lax = laxity_dist.sample(rng)
            lax = min(max(lax, spec.laxity_min), 0.98 * sojourn)
            rate = rng.uniform(spec.rate_min, spec.rate_max)
            energy = rate * (sojourn - lax)
            if spec.demand_cap is not None:
                if spec.demand_cap < 1e-9:
                    raise GenerationError("demand cap leaves no room for any session")
                energy = min(energy, spec.demand_cap)
            sessions.append(ChargingSession(
                id=f"ev{k:03d}", arrival=arrival, departure=arrival + sojourn,
                energy=energy, max_rate=rate))
        sessions.sort(key=lambda s: (s.arrival, s.id))
        corpus_sessions.append(sessions)
    return corpus_sessions


def _sampler(what: str, lo: float, mean: float, hi: float) -> _TruncatedLogNormal:
    try:
        return _TruncatedLogNormal(lo, mean, hi)
    except OverflowError:
        raise GenerationError(f"{what} targets {lo}, {mean}, {hi} overflow the sampler") from None


def generate(spec: CorpusSpec) -> list[Instance]:
    sojourn_dist = _sampler("sojourn", spec.sojourn_min, spec.sojourn_mean, spec.sojourn_max)
    target = max(spec.laxity_mean, 1e-3)
    # clamping laxity below each sojourn drags the realized mean under the
    # target, so refit the sampling distribution against what actually lands
    fit_mean = target
    corpus_sessions = []
    for _ in range(5):
        laxity_dist = _sampler("laxity", max(spec.laxity_min, 1e-3), fit_mean,
                               max(spec.laxity_max, 1e-3))
        corpus_sessions = _sample_corpus_sessions(spec, sojourn_dist, laxity_dist)
        realized = [s.sojourn - s.energy / s.max_rate
                    for sessions in corpus_sessions for s in sessions]
        mean_realized = sum(realized) / len(realized) if realized else target
        if not realized or spec.count < 50 or abs(mean_realized - target) <= 0.08 * target:
            break
        fit_mean = min(max(fit_mean * target / max(mean_realized, 1e-6), 1e-3),
                       0.99 * max(spec.laxity_max, 1e-3))
    instances = []
    for sessions in corpus_sessions:
        unpowered = Instance(sessions, ConstantPower(0.0))
        problems = validate(unpowered)
        if problems:
            raise GenerationError(f"generated invalid instance: {problems[0]}")
        p_star = min_power_capacity(unpowered)
        instance = Instance(sessions, ConstantPower(p_star))
        if not is_offline_feasible(instance):
            raise GenerationError(f"instance infeasible at its minimum power {p_star}")
        instances.append(instance)
    return instances


def _geometric(rng: random.Random, p: float) -> int:
    """Number of failures before the first success."""
    k = 0
    while rng.random() > p and k < 64:
        k += 1
    return k


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_instance(instance: Instance, path) -> None:
    lines = [FORMAT_HEADER, f"horizon {instance.horizon}"]
    if isinstance(instance.power, ConstantPower):
        lines.append(f"power constant {_fmt(instance.power.power)}")
    else:
        lines.append("power step " + " ".join(_fmt(v) for v in instance.power.values))
    for s in instance.sessions:
        lines.append(f"{s.id} {s.arrival} {s.departure} {_fmt(s.energy)} {_fmt(s.max_rate)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_SESSION_FIELDS = ("id", "arrival", "departure", "energy", "max_rate")


def _column(line: str, k: int) -> int:
    """1-based column where the k-th whitespace-separated token of `line` starts."""
    end = 0
    for token in line.split()[:k + 1]:
        start = line.index(token, end)
        end = start + len(token)
    return start + 1


def _parses(convert, token: str) -> bool:
    try:
        convert(token)
    except ValueError:
        return False
    return True


def read_instance(path) -> Instance:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        before = (data[:exc.start].decode("utf-8") + "x").splitlines()
        raise ParseError(f"{path}: line {len(before)}, column {len(before[-1])}: "
                         f"byte {data[exc.start]:#04x} is not UTF-8") from None
    lines = [(i + 1, ln) for i, ln in enumerate(raw) if ln.strip()]
    if not lines or lines[0][1].strip() != FORMAT_HEADER:
        raise ParseError(f"{path}: line 1, column 1: expected header {FORMAT_HEADER!r}")
    body = lines[1:]
    if len(body) < 2:
        raise ParseError(f"{path}: line {len(raw) + 1}, column 1: truncated file")

    def fail(ln: int, col: int, msg: str):
        raise ParseError(f"{path}: line {ln}, column {col}: {msg}")

    ln, horizon_line = body[0]
    parts = horizon_line.split()
    if parts[0] != "horizon" or len(parts) != 2:
        fail(ln, 1, "expected 'horizon <T>'")
    try:
        horizon = int(parts[1])
    except ValueError:
        fail(ln, _column(horizon_line, 1), f"bad horizon {parts[1]!r}")

    ln, power_line = body[1]
    parts = power_line.split()
    if parts[:1] != ["power"] or len(parts) < 3:
        fail(ln, 1, "expected 'power constant <P>' or 'power step <v0> ...'")
    if parts[1] not in ("constant", "step"):
        fail(ln, _column(power_line, 1), f"unknown power kind {parts[1]!r}")
    if parts[1] == "constant" and len(parts) > 3:
        fail(ln, _column(power_line, 3), "power constant takes exactly one value")
    try:
        values = [float(v) for v in parts[2:]]
    except ValueError:
        k = next(k for k in range(2, len(parts)) if not _parses(float, parts[k]))
        fail(ln, _column(power_line, k), f"bad power value {parts[k]!r}")
    power = ConstantPower(values[0]) if parts[1] == "constant" else StepwisePower(values)

    sessions = []
    for ln, line in body[2:]:
        parts = line.split()
        if len(parts) != 5:
            fail(ln, 1, "expected 'id a d e rmax'")
        try:
            sessions.append(ChargingSession(
                id=parts[0], arrival=int(parts[1]), departure=int(parts[2]),
                energy=float(parts[3]), max_rate=float(parts[4])))
        except ValueError:
            k = next(k for k in range(1, 5) if not _parses(int if k < 3 else float, parts[k]))
            fail(ln, _column(line, k), f"bad {_SESSION_FIELDS[k]} {parts[k]!r}")
    return Instance(tuple(sessions), power, horizon)


def reference_spec() -> CorpusSpec:
    """The shipped benchmark corpus: one charging day per instance, 12-minute slots."""
    return CorpusSpec(
        count=300,
        evs_min=2, evs_max=8,
        sojourn_min=1, sojourn_mean=12.4, sojourn_max=60,
        laxity_min=0.0, laxity_mean=2.9, laxity_max=55.0,
        rate_min=0.5, rate_max=2.0,
        slot_minutes=12.0,
        seed=42,
    )


def reference_spec_spaced() -> CorpusSpec:
    """Benchmark corpus with spaced arrivals and capped demands (bounded-load regime)."""
    return CorpusSpec(
        count=200,
        evs_min=2, evs_max=6,
        sojourn_min=4, sojourn_mean=14.0, sojourn_max=40,
        laxity_min=0.5, laxity_mean=4.0, laxity_max=30.0,
        rate_min=0.4, rate_max=1.0,
        slot_minutes=12.0,
        arrival_gap_floor=4,
        demand_cap=1.5,
        seed=73,
    )
