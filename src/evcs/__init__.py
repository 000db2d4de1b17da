"""Deadline scheduling for EV charging: smoothed least-laxity-first, baselines,
an offline feasibility oracle, and a resource-augmentation harness."""

from .model import ChargingSession, ConstantPower, Instance, StepwisePower, validate
from .dynamics import Schedule, RunVerdict, SimState, laxity, min_laxity
from .feasibility import min_power_capacity, offline_feasible, validate_schedule
from .simulator import simulate, success_rate, instance_metrics
from .augmentation import (AugmentationMode, augment, min_feasible_eps,
                           theorem1_bound, theorem2_bound)

__all__ = [
    "ChargingSession", "ConstantPower", "StepwisePower", "Instance", "validate",
    "Schedule", "RunVerdict", "SimState", "laxity", "min_laxity",
    "offline_feasible", "min_power_capacity", "validate_schedule",
    "simulate", "success_rate", "instance_metrics",
    "AugmentationMode", "augment", "min_feasible_eps",
    "theorem1_bound", "theorem2_bound",
]
