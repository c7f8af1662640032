"""Time-series profiles for grid elements, CSV `t_seconds,element_id,field,value`.

Lookup is step-hold: the sample at the largest time <= t applies; before the
first sample the first sample holds.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping

from ..configfile import ConfigError, Located
from .model import GridModel, Load

_HEADER = ["t_seconds", "element_id", "field", "value"]


@dataclass
class TimeSeriesProfile:
    element_id: str
    fieldname: str
    times: list[int]
    values: list[float]

    def value_at(self, t: int) -> float:
        pos = bisect_right(self.times, t)
        return self.values[0] if pos == 0 else self.values[pos - 1]


class ProfileSet:
    def __init__(self, profiles: dict[tuple[str, str], TimeSeriesProfile]):
        self.profiles = profiles

    def __len__(self):
        return len(self.profiles)

    def get(self, element_id: str, fieldname: str) -> TimeSeriesProfile | None:
        return self.profiles.get((element_id, fieldname))

    def overrides_at(self, t: int) -> dict[tuple[str, str], float]:
        return {key: prof.value_at(t) for key, prof in self.profiles.items()}


def parse_profiles(text: str, source: str = "<profiles>") -> ProfileSet:
    """Build a ProfileSet from CSV text; errors name the CSV line."""
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != _HEADER:
        raise ConfigError(f"expected header {','.join(_HEADER)}", source, 1)
    series: dict[tuple[str, str], tuple[list[int], list[float]]] = {}
    for row in reader:
        where = Located(source, reader.line_num)
        if len(row) != len(_HEADER):
            raise where.error(f"expected {len(_HEADER)} fields {','.join(_HEADER)}")
        t = where.convert(row[0], "t_seconds", int)
        value = where.convert(row[3], "value", float)
        times, values = series.setdefault((row[1], row[2]), ([], []))
        if times and t <= times[-1]:
            raise where.error(f"profile {row[1]}.{row[2]}: sample times must strictly increase")
        times.append(t)
        values.append(value)
    return ProfileSet({
        key: TimeSeriesProfile(element_id=key[0], fieldname=key[1], times=times, values=values)
        for key, (times, values) in series.items()
    })


def load_profiles(path) -> ProfileSet:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_profiles(fh.read(), source=str(path))


def element_values_at(
    model: GridModel,
    profiles: ProfileSet | None,
    t: int,
    command_overrides: Mapping[tuple[str, str], float] | None = None,
) -> dict[tuple[str, str], tuple[float, float]]:
    """Effective (p_kw, q_kvar) per load/sgen at time t.

    File values are the base, profile samples override them, and command
    overrides (operator set-points) take final precedence.
    """
    overrides = profiles.overrides_at(t) if profiles is not None else {}
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

