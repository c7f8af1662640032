"""Quasi-static AC grid simulation: model, power flow, profiles."""

from .model import (
    Bus,
    GridModel,
    Line,
    Load,
    Sgen,
    Trafo,
    ValidationError,
    load_grid,
    parse_grid,
    validate,
)
from .powerflow import (
    MONITOR_FIELDS,
    PowerFlowSolution,
    UnconvergedSolution,
    UnknownElement,
    measurements_at,
    run_power_flow,
)
from .profiles import (
    ProfileSet,
    TimeSeriesProfile,
    bus_injections,
    element_values_at,
    load_profiles,
    parse_profiles,
)

__all__ = [
    "Bus",
    "GridModel",
    "Line",
    "Load",
    "Sgen",
    "Trafo",
    "ValidationError",
    "load_grid",
    "parse_grid",
    "validate",
    "MONITOR_FIELDS",
    "PowerFlowSolution",
    "UnconvergedSolution",
    "UnknownElement",
    "measurements_at",
    "run_power_flow",
    "ProfileSet",
    "TimeSeriesProfile",
    "bus_injections",
    "element_values_at",
    "load_profiles",
    "parse_profiles",
]
