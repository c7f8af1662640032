"""Time-series profiles for grid elements, CSV `t_seconds,element_id,field,value`.

A file loads as a plain dict, (element_id, field) -> TimeSeriesProfile.
Lookup is step-hold: the sample at the largest time <= t applies; before the
first sample the first sample holds.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping

from ..configfile import ConfigError, parse_value
from .model import GridModel, Load

_HEADER = ["t_seconds", "element_id", "field", "value"]


@dataclass(slots=True)
class TimeSeriesProfile:
    times: list[int]
    values: list[float]

    def value_at(self, t: int) -> float:
        pos = bisect_right(self.times, t)
        return self.values[0] if pos == 0 else self.values[pos - 1]


def parse_profiles(text: str,
                   source: str = "<profiles>") -> dict[tuple[str, str], TimeSeriesProfile]:
    """The profiles of CSV text, keyed by (element_id, field); errors name
    the CSV line."""
    reader = csv.reader(text.splitlines())
    if [h.strip() for h in next(reader, [])] != _HEADER:
        raise ConfigError(f"expected header {','.join(_HEADER)}", source, 1)
    series: dict[tuple[str, str], tuple[list[int], list[float]]] = {}
    for row in reader:
        try:  # the file and line are attached only to an error, not built per row
            t_text, element_id, fieldname, value_text = row
            t = parse_value(t_text, "t_seconds", int)
            value = parse_value(value_text, "value", float)
            key = (element_id, fieldname)
            times, values = series.get(key) or series.setdefault(key, ([], []))
            if times and t <= times[-1]:
                raise ValueError(f"profile {key[0]}.{key[1]}: sample times must strictly increase")
        except ValueError as exc:  # also the unpacking's, for a row of other than 4 fields
            message = str(exc) if len(row) == 4 else f"expected 4 fields {','.join(_HEADER)}"
            raise ConfigError(message, source, reader.line_num) from None
        times.append(t)
        values.append(value)
    return {key: TimeSeriesProfile(times, values) for key, (times, values) in series.items()}


def load_profiles(path) -> dict[tuple[str, str], TimeSeriesProfile]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_profiles(fh.read(), source=str(path))


def element_values_at(
    model: GridModel,
    profiles: dict[tuple[str, str], TimeSeriesProfile] | None,
    t: int,
    command_overrides: Mapping[tuple[str, str], float] | None = None,
) -> dict[tuple[str, str], tuple[float, float]]:
    """Effective (p_kw, q_kvar) per load/sgen at time t.

    File values are the base, profile samples override them, and command
    overrides (operator set-points) take final precedence.
    """
    overrides = ({key: profile.value_at(t) for key, profile in profiles.items()}
                 if profiles is not None else {})
    if command_overrides:
        overrides.update(command_overrides)
    values: dict[tuple[str, str], tuple[float, float]] = {}
    for elem in model.loads + model.sgens:
        kind = "load" if isinstance(elem, Load) else "sgen"
        p = overrides.get((elem.id, "p_kw"), elem.p_kw)
        q = overrides.get((elem.id, "q_kvar"), elem.q_kvar)
        values[(kind, elem.id)] = (p, q)
    return values


def bus_injections(
    model: GridModel,
    element_values: Mapping[tuple[str, str], tuple[float, float]],
    extra_bus_kw: Mapping[str, tuple[float, float]] | None = None,
) -> dict[str, tuple[float, float]]:
    """Net per-bus injections (generation positive) from element values."""
    injections: dict[str, list[float]] = {b.id: [0.0, 0.0] for b in model.buses}
    for load in model.loads:
        p, q = element_values[("load", load.id)]
        injections[load.bus][0] -= p
        injections[load.bus][1] -= q
    for sgen in model.sgens:
        p, q = element_values[("sgen", sgen.id)]
        injections[sgen.bus][0] += p
        injections[sgen.bus][1] += q
    if extra_bus_kw:
        for bus_id, (p, q) in extra_bus_kw.items():
            injections[bus_id][0] += p
            injections[bus_id][1] += q
    return {bus_id: (pq[0], pq[1]) for bus_id, pq in injections.items()}

