"""Offline feasibility oracle, minimum uniform capacity, and schedule checking.

Feasibility is decided on the time-expanded transportation network:
source -> session arcs carry the energy demands, session -> slot arcs the
peak rates over each sojourn window, slot -> sink arcs the station power.
The instance is offline feasible exactly when the maximum flow ships every
unit of demand; Newton steps on its minimum cut give the exact minimum power.
"""
from __future__ import annotations

import math
from typing import Optional

from .dynamics import RunVerdict, Schedule, min_laxity
from .model import ContractError, Instance, Violation
from .netflow import FlowGraph

#: relative tolerance on the energy-demand equality
DEMAND_TOL = 1e-6


def _build_network(instance: Instance, power_override: float | None = None):
    """Time-expanded network; returns (graph, source, sink, session arc map)."""
    n_sessions = len(instance.sessions)
    horizon = instance.horizon
    source, sink = 0, 1
    g = FlowGraph(2 + n_sessions + horizon)
    session_node = lambda k: 2 + k
    slot_node = lambda t: 2 + n_sessions + t
    window_arcs: dict[str, list[tuple[int, int]]] = {}
    for k, s in enumerate(instance.sessions):
        g.add_edge(source, session_node(k), s.energy)
        arcs = []
        for t in range(max(s.arrival, 0), min(s.departure, horizon)):
            arcs.append((t, g.add_edge(session_node(k), slot_node(t), s.max_rate)))
        window_arcs[s.id] = arcs
    sink_arcs = []
    for t in range(horizon):
        p = power_override if power_override is not None else instance.power.at(t)
        sink_arcs.append(g.add_edge(slot_node(t), sink, p))
    return g, source, sink, window_arcs, sink_arcs


def _extract_schedule(instance: Instance, g: FlowGraph, window_arcs) -> Schedule:
    rates = {}
    for s in instance.sessions:
        row = [0.0] * instance.horizon
        for t, idx in window_arcs[s.id]:
            row[t] = g.flow_on(idx)
        rates[s.id] = tuple(row)
    return Schedule(instance.horizon, rates)


def offline_feasible(
    instance: Instance, power_override: float | None = None
) -> tuple[bool, Optional[Schedule]]:
    """Max-flow feasibility test; returns a witness schedule when feasible."""
    demand = sum(s.energy for s in instance.sessions)
    g, source, sink, window_arcs, _ = _build_network(instance, power_override)
    value = g.max_flow(source, sink)
    if value < demand - DEMAND_TOL * max(1.0, demand):
        return False, None
    return True, _extract_schedule(instance, g, window_arcs)


def min_power_capacity(instance: Instance) -> float:
    """Smallest constant station power P* making the instance offline feasible.

    The max-flow value is the minimum over cuts of a + k*P, k the slots on the
    cut's source side (Gallo, Grigoriadis & Tarjan 1989).  Newton steps from
    P = 0 move P to the root of the current min cut's line until the flow
    ships the demand; each raises P by at least DEMAND_TOL * max(1, D) / k.
    """
    for s in instance.sessions:
        if not (math.isfinite(s.energy) and math.isfinite(s.max_rate)):
            raise ContractError(f"session {s.id} has non-finite energy or max rate")
        if s.energy > s.max_rate * s.sojourn:
            raise ContractError(f"session {s.id} individually unsatisfiable")
    demand = sum(s.energy for s in instance.sessions)
    p = 0.0
    while True:
        g, source, sink, _, sink_arcs = _build_network(instance, p)
        short = demand - g.max_flow(source, sink)
        if short <= DEMAND_TOL * max(1.0, demand):
            return p
        reach = g.source_side(source)
        k = sum(reach[g.to[idx ^ 1]] for idx in sink_arcs)  # the paired arc leads to the slot
        if k == 0:
            raise ContractError("no constant power ships the demand inside the horizon")
        p += short / k


def validate_schedule(instance: Instance, schedule: Schedule) -> RunVerdict:
    """Check the box/window, per-slot power, and demand-equality constraints."""
    horizon = instance.horizon
    if schedule.horizon != horizon or set(schedule.rates) != {s.id for s in instance.sessions}:
        raise ContractError("schedule dimensions do not match the instance")
    violations: list[Violation] = []
    for s in instance.sessions:
        row = schedule.rates[s.id]
        tol = 1e-9 * max(1.0, s.max_rate)
        for t in range(horizon):
            r = row[t]
            if s.arrival <= t < s.departure:
                if r < -tol or r > s.max_rate + tol:
                    violations.append(Violation(
                        "rate-bound", s.id, f"r({t}) = {r} outside [0, {s.max_rate}]"))
            elif abs(r) > tol:
                violations.append(Violation(
                    "rate-outside-window", s.id, f"r({t}) = {r} outside sojourn"))
    for t in range(horizon):
        p = instance.power.at(t)
        total = schedule.slot_total(t)
        if total > p + 1e-9 * max(1.0, p):
            violations.append(Violation(
                "power-bound", f"slot {t}", f"total {total} exceeds P({t}) = {p}"))
    unmet = {}
    for s in instance.sessions:
        short = s.energy - schedule.delivered(s.id)
        unmet[s.id] = max(short, 0.0)
        if short > DEMAND_TOL * s.energy:
            violations.append(Violation(
                "demand-unmet", s.id, f"delivered misses demand by {short}"))
        elif short < -DEMAND_TOL * s.energy:
            violations.append(Violation(
                "demand-exceeded", s.id, f"delivered exceeds demand by {-short}"))
    return RunVerdict(
        feasible=not violations,
        min_laxity=min_laxity(instance, schedule),
        unmet_energy=unmet,
        oscillation=schedule.total_variation(),
        switch_count=schedule.switch_count(),
        violations=tuple(violations),
    )
