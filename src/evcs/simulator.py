"""Drives a policy over an instance slot by slot and scores the outcome."""
from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .dynamics import (RunVerdict, Schedule, initial_state, laxity, min_laxity, step,
                       window_metrics)
from .feasibility import DEMAND_TOL
from .model import ContractError, Instance
from .schedulers import get_policy


class PolicyContractError(ContractError):
    """A policy returned rates violating its stated invariants (a bug signal)."""


def simulate(instance: Instance, policy_name: str) -> tuple[Schedule, RunVerdict]:
    """Run one policy over the full horizon; deterministic for fixed inputs.

    Every slot is decided, also slots without sessions, but the work per slot
    follows `Instance.active_at`.  Oscillation and switch count come from
    `window_metrics`, which walks each session's sojourn only: `step` rejects
    a nonzero rate outside it, so the skipped terms are all +0.0 and the
    results equal `Schedule.total_variation()` and `switch_count()` exactly.
    """
    policy = get_policy(policy_name)
    horizon = instance.horizon
    state = initial_state(instance)
    rows = {s.id: [0.0] * horizon for s in instance.sessions}
    max_rate = {s.id: s.max_rate for s in instance.sessions}
    for t in range(horizon):
        rates = policy(state, instance, t).rates
        try:
            applied = step(state, rates, instance)
        except ContractError as exc:
            raise PolicyContractError(str(exc)) from exc
        for sid, r in rates.items():
            if r > 0.0:  # step let it through, so sid is an active session
                rows[sid][t] = min(r, max_rate[sid], state.remaining[sid])
        state = applied
    schedule = Schedule(horizon, {sid: tuple(row) for sid, row in rows.items()})
    unmet = {s.id: state.remaining[s.id] for s in instance.sessions}
    feasible = all(unmet[s.id] <= DEMAND_TOL * s.energy for s in instance.sessions)
    oscillation, switches = window_metrics(instance, schedule)
    verdict = RunVerdict(
        feasible=feasible,
        min_laxity=min_laxity(instance, schedule),
        unmet_energy=unmet,
        oscillation=oscillation,
        switch_count=switches,
    )
    return schedule, verdict


def worker_count() -> int:
    """Worker cap from EVCS_THREADS; 1 (serial) unless the variable is set."""
    raw = os.environ.get("EVCS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _feasible_under(policy_name: str, instance: Instance) -> bool:
    return simulate(instance, policy_name)[1].feasible


def run_feasibility(instances, policy_name: str) -> list[bool]:
    """Per-instance feasibility flags, fanned out across workers when allowed."""
    workers = worker_count()
    if workers > 1 and len(instances) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(partial(_feasible_under, policy_name), instances))
    return [_feasible_under(policy_name, inst) for inst in instances]


def success_rate(instances, policy_name: str) -> float:
    """Fraction of instances the policy completes feasibly."""
    if not instances:
        warnings.warn("success_rate over an empty corpus is vacuously 1.0")
        return 1.0
    flags = run_feasibility(instances, policy_name)
    return sum(flags) / len(flags)


def instance_metrics(instance: Instance) -> tuple[float, float]:
    """(max sojourn ratio, min normalized initial laxity) of an instance.

    Without sessions both are at the end of their range: (1.0, 1.0).
    """
    if not instance.sessions:
        return 1.0, 1.0
    sojourns = [s.sojourn for s in instance.sessions]
    ratio = max(sojourns) / min(sojourns)
    norm_lax = min(laxity(s, s.arrival, s.energy) / s.sojourn for s in instance.sessions)
    return ratio, norm_lax


def binned_success_rates(instances, flags, metric_index: int, bins: int):
    """Equal-count bins over the sorted metric; (lo, hi, count, rate) per bin."""
    values = [instance_metrics(inst)[metric_index] for inst in instances]
    order = sorted(range(len(values)), key=lambda k: values[k])
    out = []
    for b in range(bins):
        chunk = order[b * len(order) // bins:(b + 1) * len(order) // bins]
        if not chunk:
            continue
        rate = sum(flags[j] for j in chunk) / len(chunk)
        out.append((values[chunk[0]], values[chunk[-1]], len(chunk), rate))
    return out


def separation_witness(instances, feasible_policy: str = "sllf",
                       infeasible_policy: str = "llf"):
    """First instance one policy completes and the other does not, else None."""
    for inst in instances:
        if simulate(inst, feasible_policy)[1].feasible and \
                not simulate(inst, infeasible_policy)[1].feasible:
            return inst
    return None
