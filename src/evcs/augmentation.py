"""Resource-augmentation transforms, minimum-epsilon search, and closed-form bounds."""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

from .model import ContractError, Instance
from .simulator import run_feasibility

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

#: absolute tolerance of the minimum-epsilon search
EPS_TOL = 1e-3

#: grid of the minimum-epsilon search: the largest power of two <= EPS_TOL (2**-10)
EPS_STEP = 2.0 ** math.floor(math.log2(EPS_TOL))

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


def min_feasible_eps(instances, policy_name: str, mode: AugmentationMode) -> float:
    """Smallest eps on the EPS_STEP grid making the policy feasible on every instance.

    Each instance is simulated at the running maximum `top`, and only one
    that fails there is searched on its own: doubling brackets from 8, then
    a bisection of integer grid indices above `top`.  Passes repeat until
    none raises `top`, so the result has been simulated feasible on every
    instance.  When feasibility is monotone in eps, this is the value a
    bisection of the whole corpus over [0, 8 * 2**k] ends on.  It is not
    assumed monotone: a warning is issued when the corpus is feasible at
    eps - 2 * EPS_TOL, checked on the binding instance first, and one for
    each instance already simulated infeasible above a feasible eps.  Runs
    serially.
    Returns +inf when some instance is infeasible at every bracket up to
    EPS_CEILING.
    """
    def feasible_at(k: int, eps: float) -> bool:
        return run_feasibility([augment(instances[k], mode, eps)], policy_name)[0]

    memo: dict[tuple[int, int], bool] = {}

    def feasible(k: int, g: int) -> bool:
        if (k, g) not in memo:
            memo[k, g] = feasible_at(k, g * EPS_STEP)
        return memo[k, g]

    ceiling = EPS_CEILING / EPS_STEP
    top, binding, raised = 0, 0, True
    while raised:
        raised = False
        for k in range(len(instances)):
            if feasible(k, top):
                continue
            lo, hi = top, round(8.0 / EPS_STEP)  # lo is infeasible for k
            while hi <= lo or not feasible(k, hi):
                hi *= 2
                if hi > ceiling:
                    _warn_islands(memo)
                    return math.inf
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if feasible(k, mid):
                    hi = mid
                else:
                    lo = mid
            top, binding, raised = hi, k, True
    _warn_islands(memo)
    eps = top * EPS_STEP
    below = eps - 2.0 * EPS_TOL
    order = [binding] + [k for k in range(len(instances)) if k != binding]
    if below >= 0.0 and all(feasible_at(k, below) for k in order):
        warnings.warn(f"feasibility not monotone near eps = {below}")
    return eps


def _warn_islands(memo: dict[tuple[int, int], bool]) -> None:
    """Warn for each instance the search saw infeasible above a feasible eps.

    Simulation is deterministic, so such a pair proves that the instance's
    feasibility is not monotone in eps; the warning names the lowest feasible
    and the highest infeasible grid point probed.
    """
    lowest_ok: dict[int, int] = {}
    highest_bad: dict[int, int] = {}
    for (k, g), ok in memo.items():
        if ok:
            lowest_ok[k] = min(g, lowest_ok.get(k, g))
        else:
            highest_bad[k] = max(g, highest_bad.get(k, g))
    for k in sorted(lowest_ok.keys() & highest_bad.keys()):
        if highest_bad[k] > lowest_ok[k]:
            warnings.warn(f"non-monotone island: instance {k} is feasible at "
                          f"eps = {lowest_ok[k] * EPS_STEP} but infeasible at "
                          f"eps = {highest_bad[k] * EPS_STEP}")


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the power-augmentation bound: demand cap, arrival gap, power range."""

    max_demand: float
    min_arrival_gap: float
    p_min: float
    p_max: float

    def __post_init__(self):
        if not self.max_demand > 0:
            raise ContractError(f"theorem 1 needs a positive demand cap, not {self.max_demand}")
        if not self.min_arrival_gap >= 1:
            raise ContractError(f"theorem 1 needs an arrival gap of at least one slot, "
                                f"not {self.min_arrival_gap}")
        if not 0 < self.p_min <= self.p_max:
            raise ContractError(f"theorem 1 needs positive power, not a range of "
                                f"[{self.p_min}, {self.p_max}]")


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
        if not powers:
            raise ContractError(f"theorem 2 needs a sojourn inside the horizon, "
                                f"and session {s.id} has none")
        if min(powers) <= 0.0:
            raise ContractError(f"theorem 2 needs positive power, and the sojourn of "
                                f"session {s.id} sees P = {min(powers)}")
        spread = max(powers) / min(powers)
        rate_share = max(s.max_rate / p for p in powers)
        worst = max(worst, spread - rate_share)
    return worst


def corpus_bound_inputs(instances) -> BoundInputs:
    """Corpus-level inputs: demand cap, smallest inter-arrival gap, power extremes."""
    if not any(inst.sessions for inst in instances):
        raise ContractError("theorem 1 needs at least one session, and the corpus has none")
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
