"""`theorem2_bound` and the power window OLP reads, each read at once, against
the per-slot reads frozen in `window_oracle`: equal `repr`s, or the same error
and message."""
import math
import random

from evcs.augmentation import theorem2_bound
from evcs.model import ChargingSession, ConstantPower, ContractError, Instance, StepwisePower

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

    def test_power_window(self):
        # OLP's window, read in one call, as the frozen per-slot reads give it
        # wherever they find no negative power, which `validate` rejects
        rng = random.Random(301)
        kinds = set()
        for _ in range(3000):
            inst = random_profile_instance(rng)
            t = rng.randint(-3, inst.horizon + 1)
            end = t + rng.randint(-1, inst.horizon + 3)
            expected = outcome(window_oracle.window_power, inst, t, end)
            if isinstance(expected, tuple) and expected[0] is ContractError:
                kinds.add("negative")
                continue
            assert outcome(inst.power.window, t, end) == expected, (inst, t, end)
            kinds.add(expected[0].__name__ if isinstance(expected, tuple) else
                      "empty" if expected == "[]" else "nan" if "nan" in expected else "window")
        assert kinds == {"window", "empty", "nan", "negative", "IndexError"}, kinds
