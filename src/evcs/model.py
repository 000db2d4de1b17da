"""Charging-instance data model and structural validation."""
from __future__ import annotations

import bisect
import math
import sys
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
        is never active.  The first call builds the session tuples of
        `_events`' member positions and keeps them beside them: runs and the
        feasibility network read only the positions.  Each call is then a
        binary search.
        """
        index = self._events()
        sets = self.__dict__.get("_active_sets")
        if sets is None:
            sessions = self.sessions
            sets = self.__dict__["_active_sets"] = [tuple(sessions[k] for k in m)
                                                    for m in index[1]]
        return sets[bisect.bisect_right(index[0], t)]

    def spans(self):
        """(start, end, positions) per stretch of [0, horizon) between event
        points, idle ones (no positions) included, in time order.

        At each slot of a stretch, `active_at` returns the sessions at
        `positions` and the power is the same.  Positions, unlike sessions,
        stay apart when one session object is listed twice.
        """
        return iter(self._events()[2])

    def busy_spans(self):
        """The `spans` at which some session is active."""
        return iter(self._events()[3])

    def _events(self):
        """(event points, member positions, spans, busy spans): `members[k]`
        holds on `[points[k-1], points[k])`, and the spans are `spans()`'s
        and `busy_spans()`'s lists.

        The points are 0, each arrival and departure of a non-empty sojourn,
        and each slot at which a stepwise power changes; a profile shorter than
        the horizon is a ContractError.  `members[0]`, before the first point,
        is empty; so is the last, since every departure is a point.  Built in
        one pass on the first call and kept in the instance's `__dict__`,
        outside its fields, as `feasibility._network` keeps its network.
        """
        built = self.__dict__.get("_event_index")
        if built is not None:
            return built
        horizon, power = self.horizon, self.power
        top = horizon if horizon > 0 else 0
        events: dict[int, list[int]] = {0: []}
        if isinstance(power, StepwisePower):
            if len(power.values) < top:
                raise ContractError(f"stepwise power has no value for slot "
                                    f"{len(power.values)} of horizon {top}")
            for t in power.changes(0, top):
                events[t] = []
        for k, s in enumerate(self.sessions):
            arrival, departure = s.arrival, s.departure
            if arrival < departure:
                events.setdefault(arrival, []).append(k)
                events.setdefault(departure, []).append(~k)
        points = sorted(events)
        live: list[int] = []  # the positions active from the point on, kept sorted
        members: list[tuple[int, ...]] = [()]
        for p in points:
            for k in events[p]:
                if k >= 0:
                    bisect.insort(live, k)
                else:
                    live.remove(~k)
            members.append(tuple(live))
        spans, busy, last = [], [], len(points)
        for k, point in enumerate(points, 1):  # members[k] holds from points[k - 1] on
            start = point if point > 0 else 0
            end = points[k] if k < last else horizon
            if end > horizon:
                end = horizon
            if start < end:
                span = (start, end, members[k])
                spans.append(span)
                if members[k]:
                    busy.append(span)
        built = self.__dict__["_event_index"] = points, members, spans, busy
        return built


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
    horizon = instance.horizon
    if horizon < 0:
        out.append(Violation("negative-horizon", "horizon", f"horizon {horizon} must be >= 0"))
    seen: set[str] = set()
    for s in instance.sessions:
        sid, arrival, departure, energy, max_rate = (s.id, s.arrival, s.departure, s.energy,
                                                     s.max_rate)
        if sid in seen:
            out.append(Violation("duplicate-id", sid, f"session id {sid!r} repeated"))
        seen.add(sid)
        if arrival >= departure:
            out.append(Violation("empty-sojourn", sid,
                                 f"arrival {arrival} not before departure {departure}"))
            continue
        sojourn = departure - arrival  # `s.sojourn`, read once
        if arrival < 0 or departure > horizon:
            out.append(Violation("window-out-of-range", sid,
                                 f"[{arrival}, {departure}) outside [0, {horizon}]"))
        if not (math.isfinite(energy) and math.isfinite(max_rate)):
            out.append(Violation("non-finite", sid,
                                 f"energy {energy} and max rate {max_rate} must be finite"))
        elif sojourn > _FLOAT_MAX or math.isinf(max_rate * sojourn):
            out.append(Violation("non-finite", sid,
                                 f"max rate {max_rate} * sojourn {sojourn} overflows"))
        if energy <= 0:
            out.append(Violation("nonpositive-energy", sid, f"energy {energy} must be > 0"))
        if max_rate <= 0:
            out.append(Violation("nonpositive-rate-cap", sid,
                                 f"max rate {max_rate} must be > 0"))
        elif sojourn <= _FLOAT_MAX and energy > max_rate * sojourn:
            out.append(Violation("individually-unsatisfiable", sid,
                                 f"energy {energy} exceeds {max_rate} * {sojourn}"))
    horizon, power = max(horizon, 0), instance.power
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

