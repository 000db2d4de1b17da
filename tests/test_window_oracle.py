"""`theorem2_bound` and OLP's `_window_power`, which read each window of the
power profile at once, against the per-slot reads frozen in `window_oracle`:
equal `repr`s, or the same error and message."""
import itertools
import math
import random

from evcs.augmentation import theorem2_bound
from evcs.model import ChargingSession, ConstantPower, Instance, StepwisePower
from evcs.schedulers import _window_power

import window_oracle

#: powers a profile draws from: 0, negative, NaN and inf among ordinary ones
LEVELS = [0.0, -0.0, -0.5, math.nan, math.inf, 0.25, 1.0, 2.5, 4.0]


def outcome(fn, *args):
    """The repr of what `fn(*args)` returns, as a list, or its error's type and message."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001  the error is the outcome compared
        return type(exc), str(exc)
    return repr(list(result) if isinstance(result, (list, tuple)) else result)


def random_profile_instance(rng: random.Random) -> Instance:
    """Up to five sessions whose sojourns may start before 0, end past the
    horizon or be empty, with peak rates of 0, below 0 or NaN now and then,
    under a constant power or a stepwise one, which may be a slot short of the
    horizon or longer, drawn from `LEVELS` and random values."""
    horizon = rng.randint(0, 12)
    sessions = []
    for k in range(rng.randint(1, 5)):
        arrival = rng.randint(-3, horizon + 1)
        max_rate = rng.choice([0.0, -1.0, math.nan, rng.uniform(0.1, 3.0), 1.0, 2.0])
        sessions.append(ChargingSession(f"s{k}", arrival, arrival + rng.randint(-1, 8), 1.0,
                                        max_rate))
    draw = lambda: rng.choice(LEVELS) if rng.random() < 0.3 else rng.uniform(0.1, 5.0)
    if rng.random() < 0.4:
        power = ConstantPower(draw())
    else:
        length = max(horizon + rng.choice([-1, 0, 0, 0, 2]), 0)
        power = StepwisePower([draw() for _ in range(length)])
    return Instance(sessions, power, horizon)


class TestAgainstPerSlotReads:
    def test_theorem2_bound(self):
        rng = random.Random(300)
        kinds = set()
        for _ in range(3000):
            inst = random_profile_instance(rng)
            expected = outcome(window_oracle.theorem2_bound, inst)
            assert outcome(theorem2_bound, inst) == expected, inst
            kinds.add(expected[0].__name__ if isinstance(expected, tuple) else "number")
        # a NaN before a 0 in a window passes the positive-power check and divides by 0
        assert kinds == {"number", "ContractError", "IndexError", "ZeroDivisionError"}, kinds

    def test_window_power(self):
        rng = random.Random(301)
        kinds = set()
        for _ in range(3000):
            inst = random_profile_instance(rng)
            t = rng.randint(-3, inst.horizon + 1)
            end = t + rng.randint(-1, inst.horizon + 3)
            expected = outcome(window_oracle.window_power, inst, t, end)
            assert outcome(_window_power, inst, t, end) == expected, (inst, t, end)
            kinds.add(expected[0].__name__ if isinstance(expected, tuple) else
                      "empty" if expected == "[]" else "nan" if "nan" in expected else "window")
        assert kinds == {"window", "empty", "nan", "ContractError", "IndexError"}, kinds

    def test_window_power_on_nan_and_negative_slots(self):
        # every stepwise window of three slots over NaN, zeros of both signs and
        # negative powers: a NaN before a negative power hides it from no check
        values = [math.nan, -0.5, -0.0, 0.0, 1.0, -2.0]
        errors = 0
        for powers in itertools.product(values, repeat=3):
            inst = Instance((), StepwisePower(powers), 3)
            for t, end in ((0, 3), (1, 3), (0, 2), (2, 3)):
                expected = outcome(window_oracle.window_power, inst, t, end)
                assert outcome(_window_power, inst, t, end) == expected, (powers, t, end)
                errors += isinstance(expected, tuple)
        assert errors > 400, errors
        inst = Instance((), StepwisePower([math.nan, math.nan, -1.0, -2.0]), 4)
        assert outcome(_window_power, inst, 0, 4)[1] == (
            "OLP: negative station power P(2) = -1.0 at slot 2")
