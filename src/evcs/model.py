"""Charging-instance data model and structural validation."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union


class ContractError(Exception):
    """A caller violated an operation's precondition."""


@dataclass(frozen=True)
class ChargingSession:
    """One EV: arrival/departure slots, energy demand, and peak charging rate."""

    id: str
    arrival: int
    departure: int
    energy: float
    max_rate: float

    @property
    def sojourn(self) -> int:
        return self.departure - self.arrival


@dataclass(frozen=True)
class ConstantPower:
    power: float

    def at(self, t: int) -> float:
        return self.power

    def bounds(self, horizon: int) -> tuple[float, float]:
        return self.power, self.power

    def scaled(self, factor: float) -> "ConstantPower":
        return ConstantPower(self.power * factor)


@dataclass(frozen=True)
class StepwisePower:
    values: tuple[float, ...]

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(float(v) for v in values))

    def at(self, t: int) -> float:
        return self.values[t]

    def bounds(self, horizon: int) -> tuple[float, float]:
        window = self.values[: horizon or None]
        return min(window), max(window)

    def scaled(self, factor: float) -> "StepwisePower":
        return StepwisePower(tuple(v * factor for v in self.values))


PowerProfile = Union[ConstantPower, StepwisePower]


@dataclass(frozen=True)
class Instance:
    """A full charging problem: sessions, station power profile, and horizon."""

    sessions: tuple[ChargingSession, ...]
    power: PowerProfile
    horizon: int = 0

    def __init__(self, sessions, power, horizon=None):
        sessions = tuple(sessions)
        if horizon is None:
            horizon = max((s.departure for s in sessions), default=0)
        object.__setattr__(self, "sessions", sessions)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "horizon", int(horizon))

    def session(self, sid: str) -> ChargingSession:
        for s in self.sessions:
            if s.id == sid:
                return s
        raise KeyError(sid)


@dataclass(frozen=True)
class Violation:
    """One broken structural invariant; data, not an exception."""

    code: str
    subject: str
    message: str


def validate(instance: Instance) -> list[Violation]:
    """Check all structural invariants; empty list means the instance is well formed."""
    out: list[Violation] = []
    if instance.horizon < 0:
        out.append(Violation("negative-horizon", "horizon",
                             f"horizon {instance.horizon} must be >= 0"))
    seen: set[str] = set()
    for s in instance.sessions:
        if s.id in seen:
            out.append(Violation("duplicate-id", s.id, f"session id {s.id!r} repeated"))
        seen.add(s.id)
        if s.arrival >= s.departure:
            out.append(Violation("empty-sojourn", s.id,
                                 f"arrival {s.arrival} not before departure {s.departure}"))
            continue
        if s.arrival < 0 or s.departure > instance.horizon:
            out.append(Violation("window-out-of-range", s.id,
                                 f"[{s.arrival}, {s.departure}) outside [0, {instance.horizon}]"))
        if not (math.isfinite(s.energy) and math.isfinite(s.max_rate)):
            out.append(Violation("non-finite", s.id,
                                 f"energy {s.energy} and max rate {s.max_rate} must be finite"))
        if s.energy <= 0:
            out.append(Violation("nonpositive-energy", s.id, f"energy {s.energy} must be > 0"))
        if s.max_rate <= 0:
            out.append(Violation("nonpositive-rate-cap", s.id,
                                 f"max rate {s.max_rate} must be > 0"))
        elif s.energy > s.max_rate * s.sojourn:
            out.append(Violation("individually-unsatisfiable", s.id,
                                 f"energy {s.energy} exceeds {s.max_rate} * {s.sojourn}"))
    for t in range(instance.horizon):
        try:
            p = instance.power.at(t)
        except IndexError:
            out.append(Violation("power-profile-short", f"slot {t}",
                                 "stepwise profile does not cover the horizon"))
            break
        if not math.isfinite(p):
            out.append(Violation("non-finite", f"slot {t}", f"P({t}) = {p} must be finite"))
        elif p < 0:
            out.append(Violation("negative-power", f"slot {t}", f"P({t}) = {p} < 0"))
    return out

