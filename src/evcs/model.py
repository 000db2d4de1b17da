"""Charging-instance data model and structural validation."""
from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import cached_property
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

    def window(self, lo: int, hi: int) -> tuple[float, ...]:
        """P(lo), ..., P(hi - 1): the one power, hi - lo times."""
        return (self.power,) * (hi - lo)

    def levels(self, lo: int, hi: int) -> tuple[float, ...]:
        """The values P takes over slots lo ... hi - 1, each at least once, in
        slot order: the one power, once, or none for an empty window."""
        return (self.power,) if lo < hi else ()

    def changes(self, lo: int, hi: int) -> list[int]:
        """The slots lo < t < hi at which P(t) differs from P(t - 1): none."""
        return []

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

    def window(self, lo: int, hi: int) -> tuple[float, ...]:
        """P(lo), ..., P(hi - 1) as one slice of the values, or slot by slot,
        as `at` reads them, where the window is not inside the profile."""
        values = self.values
        if 0 <= lo <= hi <= len(values):
            return values[lo:hi]
        return tuple(values[t] for t in range(lo, hi))

    def levels(self, lo: int, hi: int) -> tuple[float, ...]:
        """The values P takes over slots lo ... hi - 1, each at least once, in
        slot order: the window itself."""
        return self.window(lo, hi)

    def changes(self, lo: int, hi: int) -> list[int]:
        """The slots lo < t < hi at which P(t) differs from P(t - 1), a NaN
        from every value, in slot order."""
        values = self.values
        return [t for t in range(lo + 1, hi) if values[t] != values[t - 1]]

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
        """The session with id `sid`; KeyError if there is none.

        Public API, kept for library callers and the benchmark's tracer,
        which counts its calls; the simulator itself never looks sessions up
        by id.
        """
        for s in self.sessions:
            if s.id == sid:
                return s
        raise KeyError(sid)

    def active_at(self, t: int) -> tuple[ChargingSession, ...]:
        """The sessions with `arrival <= t < departure`, in instance order.

        Instance order decides the policies' tie-breaks and the order of their
        float sums, so it is kept.  Any integer t is allowed, and so are
        instances that `validate` rejects: a session with `arrival >= departure`
        is never active.  The first call builds the session tuples (see
        `_active_sets`); each call is then a binary search.
        """
        return self._active_sets[bisect.bisect_right(self._active_index[0], t)]

    def spans(self):
        """(start, end, positions) per stretch of [0, horizon) between event
        points, idle ones (no positions) included, in time order.

        At each slot of a stretch, `active_at` returns the sessions at
        `positions` and the power is the same.  Positions, unlike sessions,
        stay apart when one session object is listed twice.
        """
        points, members = self._active_index
        for k, point in enumerate(points, 1):  # members[k] holds from points[k - 1] on
            start = max(point, 0)
            end = min(points[k], self.horizon) if k < len(points) else self.horizon
            if start < end:
                yield start, end, members[k]

    def busy_spans(self):
        """The `spans` at which some session is active."""
        return ((a, b, m) for a, b, m in self.spans() if m)

    @cached_property
    def _active_index(self):
        """(event points, member positions): `members[k]` holds on
        `[points[k-1], points[k])`.

        The points are 0, each arrival and departure of a non-empty sojourn,
        and each slot at which a stepwise power changes; a profile shorter than
        the horizon is a ContractError.  `members[0]`, before the first point,
        is empty; so is the last, since every departure is a point.
        """
        horizon, power = max(self.horizon, 0), self.power
        events: dict[int, list[int]] = {0: []}
        if isinstance(power, StepwisePower):
            if len(power.values) < horizon:
                raise ContractError(f"stepwise power has no value for slot "
                                    f"{len(power.values)} of horizon {horizon}")
            events.update((t, []) for t in power.changes(0, horizon))
        for k, s in enumerate(self.sessions):
            if s.arrival < s.departure:
                events.setdefault(s.arrival, []).append(k)
                events.setdefault(s.departure, []).append(~k)
        points = sorted(events)
        live: set[int] = set()
        members: list[tuple[int, ...]] = [()]
        for p in points:
            for k in events[p]:
                if k >= 0:
                    live.add(k)
                else:
                    live.remove(~k)
            members.append(tuple(sorted(live)))
        return points, members

    @cached_property
    def _active_sets(self):
        """The sessions at each of `_active_index`'s member positions, built on
        the first `active_at` call: runs and the feasibility network read
        only the positions."""
        sessions = self.sessions
        return [tuple(sessions[k] for k in m) for m in self._active_index[1]]


#: the largest float: a larger integer field cannot enter a float product
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class Violation:
    """One broken structural invariant; data, not an exception."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} ({self.subject}): {self.message}"


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
        elif s.sojourn > _FLOAT_MAX or math.isinf(s.max_rate * s.sojourn):
            out.append(Violation("non-finite", s.id,
                                 f"max rate {s.max_rate} * sojourn {s.sojourn} overflows"))
        if s.energy <= 0:
            out.append(Violation("nonpositive-energy", s.id, f"energy {s.energy} must be > 0"))
        if s.max_rate <= 0:
            out.append(Violation("nonpositive-rate-cap", s.id,
                                 f"max rate {s.max_rate} must be > 0"))
        elif s.sojourn <= _FLOAT_MAX and s.energy > s.max_rate * s.sojourn:
            out.append(Violation("individually-unsatisfiable", s.id,
                                 f"energy {s.energy} exceeds {s.max_rate} * {s.sojourn}"))
    horizon, power = max(instance.horizon, 0), instance.power
    if isinstance(power, ConstantPower):
        levels = (power.power,)[:horizon]  # one check covers every slot
    else:
        levels = power.values[:horizon]
    for t, p in enumerate(levels):
        if not math.isfinite(p):
            out.append(Violation("non-finite", f"slot {t}", f"P({t}) = {p} must be finite"))
        elif p < 0:
            out.append(Violation("negative-power", f"slot {t}", f"P({t}) = {p} < 0"))
    if isinstance(power, StepwisePower) and len(levels) < horizon:
        out.append(Violation("power-profile-short", f"slot {len(levels)}",
                             "stepwise profile does not cover the horizon"))
    # finite inputs whose products, as the feasibility network forms them, overflow
    energies = [s.energy for s in instance.sessions]
    if horizon > _FLOAT_MAX:  # not even a float: the products below would raise
        out.append(Violation("non-finite", "horizon", f"horizon {horizon} overflows a float"))
        return out
    if all(map(math.isfinite, energies)) and math.isinf(sum(energies) * horizon):
        out.append(Violation("non-finite", "demand",
                             f"total energy {sum(energies)} * horizon {horizon} overflows"))
    if levels and all(map(math.isfinite, levels)) and math.isinf(max(levels) * horizon):
        out.append(Violation("non-finite", "power",
                             f"largest power {max(levels)} * horizon {horizon} overflows"))
    return out

