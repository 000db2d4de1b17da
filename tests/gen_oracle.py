"""Frozen generator: the sampler, `generate` and `min_power_capacity` as they
were before the corpus was drawn once per spec.

Each refit here redraws the whole corpus from the seed, every bisection of
the truncated log-normal runs its 200 steps, each Newton step searches the
residual graph again for its cut, and P* is checked on a new instance.  The
bodies are copied unchanged; `evcs.corpus.generate` and
`evcs.feasibility.min_power_capacity` must return the same floats and raise
the same errors.
"""
from __future__ import annotations

import math
import random

from evcs.corpus import _STD_NORMAL, CorpusSpec, GenerationError, _geometric
from evcs.feasibility import SINK, SOURCE, _build_network, is_offline_feasible, ships_demand
from evcs.model import ChargingSession, ConstantPower, ContractError, Instance, validate
from evcs.netflow import ARC_TOL
from flow_oracle import source_side


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


def min_power_capacity(instance: Instance) -> float:
    """Smallest constant station power P* making the instance offline feasible.

    The max-flow value is the minimum over cuts of a + k*P, k the total length
    of the intervals on the cut's source side (Gallo, Grigoriadis & Tarjan
    1989).  Newton steps from P = 0 move P to the root of the current min
    cut's line, and by at least 2 * ARC_TOL * P, the least a sink arc's
    tolerance sees, until `ships_demand`.  P only rises, so each step raises
    the sink arcs to P*l and the next max-flow augments the flow already sent.
    """
    for s in instance.sessions:
        if not (math.isfinite(s.energy) and math.isfinite(s.max_rate)):
            raise ContractError(f"session {s.id} has non-finite energy or max rate")
        if s.energy > s.max_rate * s.sojourn:
            raise ContractError(f"session {s.id} individually unsatisfiable")
    energies = [s.energy for s in instance.sessions]
    sources, demand, p = range(0, 2 * len(energies), 2), sum(energies), 0.0
    g, _, sink_arcs = _build_network(instance, p)
    short = demand - g.max_flow(SOURCE, SINK)
    while not ships_demand([g.cap[a] for a in sources], energies):
        reach = source_side(g, SOURCE)
        # the paired arc leads back to the interval node
        k = sum(b - a for a, b, idx in sink_arcs if reach[g.to[idx ^ 1]])
        if k == 0:
            raise ContractError("no constant power ships the demand inside the horizon")
        p += max(short / k, 2 * ARC_TOL * p)
        for a, b, idx in sink_arcs:
            g.raise_capacity(idx, p * (b - a))
        short -= g.max_flow(SOURCE, SINK)
    return p

