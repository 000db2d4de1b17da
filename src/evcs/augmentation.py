"""Resource-augmentation transforms, minimum-epsilon search, and closed-form bounds."""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

from .model import ContractError, Instance
from .simulator import run_feasibility

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

#: absolute tolerance of the minimum-epsilon bisection
EPS_TOL = 1e-3

#: epsilon beyond which the search reports failure
EPS_CEILING = 64.0


class AugmentationMode(enum.Enum):
    POWER = "power"
    POWER_AND_RATE = "power-rate"


def augment(instance: Instance, mode: AugmentationMode, eps: float) -> Instance:
    """Scale the power profile (and, in POWER_AND_RATE mode, every peak rate)."""
    if eps < 0:
        raise ContractError(f"negative augmentation {eps}")
    factor = 1.0 + eps
    sessions = instance.sessions
    if mode is AugmentationMode.POWER_AND_RATE:
        sessions = tuple(replace(s, max_rate=s.max_rate * factor) for s in sessions)
    return Instance(sessions, instance.power.scaled(factor), instance.horizon)


def _all_feasible(instances, policy_name: str, mode: AugmentationMode, eps: float) -> bool:
    return all(run_feasibility([augment(i, mode, eps) for i in instances], policy_name))


def min_feasible_eps(instances, policy_name: str, mode: AugmentationMode,
                     tol: float = EPS_TOL) -> float:
    """Smallest augmentation making the policy feasible on every instance.

    Bisection over eps with explicit re-verification of both endpoints;
    feasibility is not assumed monotone in eps, only checked.  Returns +inf
    when no feasible eps is found at or below EPS_CEILING.
    """
    if not instances:
        return 0.0
    if _all_feasible(instances, policy_name, mode, 0.0):
        return 0.0
    hi = 8.0
    while not _all_feasible(instances, policy_name, mode, hi):
        hi *= 2.0
        if hi > EPS_CEILING:
            return math.inf
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _all_feasible(instances, policy_name, mode, mid):
            hi = mid
        else:
            lo = mid
    if not _all_feasible(instances, policy_name, mode, hi):
        warnings.warn(f"feasibility not monotone near eps = {hi}")
    if hi - 2.0 * tol >= 0.0 and _all_feasible(instances, policy_name, mode, hi - 2.0 * tol):
        warnings.warn(f"feasibility not monotone near eps = {hi - 2.0 * tol}")
    return hi


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the power-augmentation bound: demand cap, arrival gap, power range."""

    max_demand: float
    min_arrival_gap: float
    p_min: float
    p_max: float

    def __post_init__(self):
        if not (self.max_demand > 0 and self.min_arrival_gap >= 1
                and 0 < self.p_min <= self.p_max):
            raise ContractError(f"invalid bound inputs {self}")


def theorem1_bound(inputs: BoundInputs) -> float:
    """Golden-ratio power-augmentation guarantee for bounded-demand, spaced arrivals."""
    arg = math.sqrt(5.0) * inputs.max_demand / (inputs.min_arrival_gap * inputs.p_max) + 0.5
    return (inputs.p_max / inputs.p_min) * (math.log(arg, GOLDEN_RATIO) + 2.0) - 1.0


def theorem2_bound(instance: Instance) -> float:
    """Power+rate augmentation guarantee from per-window power spread and rate share.

    Evaluated over the discrete slots of each sojourn window.  The formula can
    go negative when some peak rate exceeds the window's power; callers report
    max(0, bound).
    """
    worst = -math.inf
    for s in instance.sessions:
        window = range(s.arrival, min(s.departure, instance.horizon))
        powers = [instance.power.at(t) for t in window]
        if not powers or min(powers) <= 0.0:
            raise ContractError(f"nonpositive power inside sojourn of {s.id}")
        spread = max(powers) / min(powers)
        rate_share = max(s.max_rate / p for p in powers)
        worst = max(worst, spread - rate_share)
    return worst


def corpus_bound_inputs(instances) -> BoundInputs:
    """Corpus-level inputs: demand cap, smallest inter-arrival gap, power extremes."""
    if not any(inst.sessions for inst in instances):
        raise ContractError("no sessions to bound")
    max_demand = max(s.energy for inst in instances for s in inst.sessions)
    gaps = []
    p_lo, p_hi = math.inf, -math.inf
    for inst in instances:
        arrivals = sorted(s.arrival for s in inst.sessions)
        gaps.extend(b - a for a, b in zip(arrivals, arrivals[1:]))
        lo, hi = inst.power.bounds(inst.horizon)
        p_lo, p_hi = min(p_lo, lo), max(p_hi, hi)
    # arrivals are integer slots strictly more than the gap floor apart
    min_gap = (min(gaps) - 1) if gaps else 1
    return BoundInputs(max_demand, max(min_gap, 1), p_lo, p_hi)
