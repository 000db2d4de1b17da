"""Drives a policy over an instance slot by slot and scores the outcome.

Everything runs serially in the calling process: the corpus sweeps and the
augmentation search share `run_feasibility`, one `simulate` per instance.
"""
from __future__ import annotations

import warnings

from .dynamics import RunVerdict, Schedule, SimState, initial_state, laxity, step
from .feasibility import DEMAND_TOL
from .model import ContractError, Instance
from .schedulers import get_policy


class PolicyContractError(ContractError):
    """A policy returned rates violating its stated invariants (a bug signal)."""


def simulate(instance: Instance, policy_name: str) -> tuple[Schedule, RunVerdict]:
    """Run one policy over the busy slots; deterministic for fixed inputs.

    Only the slots of `Instance.busy_spans` are decided and stepped, so `P(t)`
    is never read at an idle slot: a negative power there is left to
    `validate`, which rejects it.  Each row is a window over its sojourn
    clipped to [0, horizon), joined over an id; `step` rejects rates outside it.
    Every state of the run carries one run memory, created here, in which a
    policy keeps what it plans across slots (OLP's plan).
    """
    policy = get_policy(policy_name)
    horizon = instance.horizon
    starts, ends = {}, {}
    for s in instance.sessions:
        lo, hi = min(max(s.arrival, 0), horizon), min(max(s.departure, 0), horizon)
        starts[s.id], ends[s.id] = min(lo, starts.get(s.id, lo)), max(hi, ends.get(s.id, hi))
    rows = {sid: [0.0] * (ends[sid] - lo) for sid, lo in starts.items()}
    max_rate = {s.id: s.max_rate for s in instance.sessions}
    state = SimState(0, initial_state(instance).remaining, {})
    for t in (u for a, b, _ in instance.busy_spans() for u in range(a, b)):
        if state.t != t:  # an idle slot leaves every energy as it is
            state = SimState(t, state.remaining, state.memory)
        rates = policy(state, instance, t).rates
        try:
            applied = step(state, rates, instance)
        except ContractError as exc:
            raise PolicyContractError(str(exc)) from exc
        for sid, r in rates.items():
            if r > 0.0:  # step let it through, so sid is active and t in its window
                rows[sid][t - starts[sid]] = min(r, max_rate[sid], state.remaining[sid])
        state = applied
    schedule = Schedule(horizon, {sid: tuple(row) for sid, row in rows.items()}, starts)
    unmet = {s.id: state.remaining[s.id] for s in instance.sessions}
    feasible = all(unmet[s.id] <= DEMAND_TOL * s.energy for s in instance.sessions)
    return schedule, RunVerdict(feasible, unmet)


def run_feasibility(instances, policy_name: str) -> list[bool]:
    """Per-instance feasibility flags, one serial `simulate` each, in input order."""
    return [simulate(inst, policy_name)[1].feasible for inst in instances]


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


def separation_witness(instances):
    """First instance sLLF completes and LLF does not, else None."""
    for inst in instances:
        if simulate(inst, "sllf")[1].feasible and not simulate(inst, "llf")[1].feasible:
            return inst
    return None
