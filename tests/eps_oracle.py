"""Reference minimum-epsilon search: bisection of the whole corpus.

Every probe simulates every instance.  Brackets double from 8 up to
EPS_CEILING, then [0, hi] is halved until it is at most EPS_TOL wide, which
for every bracket ends at a width of exactly EPS_STEP.  When each instance's
feasibility is monotone in eps, `augmentation.min_feasible_eps` must return
the same float.
"""
import math

from evcs.augmentation import EPS_CEILING, EPS_TOL, augment
from evcs.simulator import run_feasibility


def corpus_bisection_eps(instances, policy_name, mode):
    def all_feasible(eps):
        return all(run_feasibility([augment(i, mode, eps) for i in instances], policy_name))

    if all_feasible(0.0):
        return 0.0
    hi = 8.0
    while not all_feasible(hi):
        hi *= 2.0
        if hi > EPS_CEILING:
            return math.inf
    lo = 0.0
    while hi - lo > EPS_TOL:
        mid = 0.5 * (lo + hi)
        if all_feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
