import dataclasses
import random

import pytest

#: one line per acceptance criterion, echoed after the run (outside capture)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from evcs.corpus import generate, reference_spec, reference_spec_spaced
from evcs.dynamics import SimState
from evcs.model import ChargingSession, ConstantPower, Instance


@pytest.fixture
def instance_ia() -> Instance:
    """Canonical two-EV instance: unit power, unit rate caps, two slots."""
    return Instance(
        (ChargingSession("EV1", 0, 2, 0.75, 1.0),
         ChargingSession("EV2", 0, 2, 1.25, 1.0)),
        ConstantPower(1.0),
    )


@pytest.fixture(scope="session")
def reference_corpus():
    return generate(reference_spec())


@pytest.fixture(scope="session")
def spaced_corpus():
    return generate(reference_spec_spaced())


@pytest.fixture(scope="session")
def persistence_corpus():
    spec = dataclasses.replace(reference_spec(), count=1000, seed=4242)
    return generate(spec)


def random_slot_state(rng: random.Random, max_evs: int = 10):
    """A random single-slot decision problem at t = 0: a valid instance and
    a state of it.

    A session's remaining energy may exceed what its peak rate delivers by
    its departure, a negative laxity, as in a mid-run state of a run short
    of power; its energy in the instance is that reach at most, as
    `validate` requires.
    """
    n = rng.randint(1, max_evs)
    sessions, remaining = [], {}
    for k in range(n):
        r_bar = rng.uniform(0.1, 5.0)
        d = rng.randint(1, 10)
        energy = rng.uniform(1e-3, 1.3 * r_bar * d)
        sessions.append(ChargingSession(f"s{k}", 0, d, min(energy, r_bar * d), r_bar))
        remaining[f"s{k}"] = energy
    power = ConstantPower(rng.uniform(0.1, 10.0))
    return SimState(0, remaining), Instance(tuple(sessions), power)


def random_feasible_rates(rng: random.Random, state, instance):
    """A uniformly perturbed rate vector inside the box, scaled under the power cap."""
    t = state.t
    rates = {}
    for s in instance.sessions:
        if s.arrival <= t < s.departure and state.remaining[s.id] > 0:
            cap = min(s.max_rate, state.remaining[s.id])
            rates[s.id] = rng.uniform(0.0, cap)
    total = sum(rates.values())
    p = instance.power.at(t)
    if total > p:
        scale = p / total
        rates = {k: v * scale for k, v in rates.items()}
    return rates
