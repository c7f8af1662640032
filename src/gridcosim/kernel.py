"""Time-discrete co-simulation kernel.

Every registered simulator is stepped at t = 0, step_s, 2*step_s, ... < until
on a shared integer-second clock, in registration order. One rule gives every
simulator its inputs: each step function gets, per simulator id, the outputs
that simulator last emitted, attribute by attribute. So a simulator registered
earlier is read as it was at this step, and one registered later (or the
stepping simulator itself) as it was at an earlier step. An attribute that has
not been emitted yet has no entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

# (t, per simulator id: {(entity, attribute): value}) -> {(entity, attribute): value}
StepFn = Callable[[int, dict], dict]


class KernelError(Exception):
    pass


class SimulatorFault(KernelError):
    """A simulator raised during run(); aborts the run."""

    def __init__(self, sim_id: str, step_time: int, cause: BaseException):
        super().__init__(f"simulator '{sim_id}' failed at t={step_time}: {cause!r}")
        self.sim_id = sim_id
        self.step_time = step_time
        self.cause = cause


@dataclass(frozen=True)
class SimulatorDescriptor:
    id: str


@dataclass
class RunReport:
    until: int
    step_counts: dict[str, int]
    wall_seconds: float

    def to_text(self) -> str:
        lines = [f"until_s: {self.until}", f"simulators: {len(self.step_counts)}"]
        for sim_id, count in self.step_counts.items():
            lines.append(f"steps.{sim_id}: {count}")
        lines.append(f"wall_seconds: {self.wall_seconds:.3f}")
        return "\n".join(lines) + "\n"


class Kernel:
    def __init__(self, step_s: int):
        self._step_s = step_s
        self._sims: dict[str, StepFn] = {}  # registration order

    def register_simulator(self, desc: SimulatorDescriptor, step_fn: StepFn) -> str:
        self._sims[desc.id] = step_fn
        return desc.id

    def run(self, until: int) -> RunReport:
        if until <= 0:
            raise KernelError("until must be > 0")
        values: dict[str, dict] = {sim_id: {} for sim_id in self._sims}
        times = range(0, until, self._step_s)
        started = time.perf_counter()
        for t in times:
            for sim_id, step_fn in self._sims.items():
                try:
                    outputs = step_fn(t, values)
                except Exception as exc:
                    raise SimulatorFault(sim_id, t, exc) from exc
                if outputs:
                    values[sim_id].update(outputs)
        return RunReport(
            until=until,
            step_counts=dict.fromkeys(self._sims, len(times)),
            wall_seconds=time.perf_counter() - started,
        )
