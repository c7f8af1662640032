"""Time-discrete co-simulation kernel.

Every registered simulator is stepped at t = 0, step_s, 2*step_s, ... < until
on a shared integer-second clock. Within a step they run in topological order
of the unshifted data links, ties broken by registration order.

One rule gives every input its value:
- an unshifted input reads the producer's value from the same step;
- a time-shifted input reads the value the producer last emitted at an
  earlier step;
- an input with no value yet reads None: at t=0 over a time-shifted link,
  an unwired input, or a producer that never emits the attribute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

Attr = tuple[str, str]            # (entity, attribute)
Endpoint = tuple[str, str, str]   # (simulator, entity, attribute)
StepFn = Callable[[int, dict], dict]


class KernelError(Exception):
    pass


class DuplicateId(KernelError):
    pass


class UnknownEndpoint(KernelError):
    pass


class CycleWithoutTimeShift(KernelError):
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
    provides: tuple[Attr, ...] = ()
    consumes: tuple[Attr, ...] = ()


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


class _Registered(NamedTuple):
    desc: SimulatorDescriptor
    step_fn: StepFn
    provides: frozenset[Attr]
    consumes: frozenset[Attr]


class Kernel:
    def __init__(self, step_s: int):
        if step_s < 1:
            raise KernelError(f"step_s must be >= 1, got {step_s}")
        self._step_s = step_s
        self._sims: dict[str, _Registered] = {}                 # registration order
        self._inputs: dict[Endpoint, tuple[Endpoint, bool]] = {}  # dst -> (src, time_shifted)
        self._upstream: dict[str, set[str]] = {}                # consumer -> unshifted producers

    def register_simulator(self, desc: SimulatorDescriptor, step_fn: StepFn) -> str:
        if desc.id in self._sims:
            raise DuplicateId(f"simulator id '{desc.id}' already registered")
        self._sims[desc.id] = _Registered(
            desc, step_fn, frozenset(desc.provides), frozenset(desc.consumes)
        )
        self._upstream[desc.id] = set()
        return desc.id

    def _check_endpoint(self, endpoint: Endpoint, direction: str) -> None:
        sim_id, entity, attr = endpoint
        sim = self._sims.get(sim_id)
        if sim is None:
            raise UnknownEndpoint(f"unknown simulator '{sim_id}'")
        attrs = sim.provides if direction == "provides" else sim.consumes
        if (entity, attr) not in attrs:
            raise UnknownEndpoint(
                f"simulator '{sim_id}' does not declare {direction} ({entity}, {attr})"
            )

    def _upstream_reaches(self, start: str, goal: str) -> bool:
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(self._upstream[node])
        return False

    def connect(self, src: Endpoint, dst: Endpoint, *, time_shifted: bool = False) -> None:
        self._check_endpoint(src, "provides")
        self._check_endpoint(dst, "consumes")
        if src[0] == dst[0]:
            raise KernelError("link endpoints must belong to different simulators")
        if dst in self._inputs:
            raise KernelError(f"input {dst} is already wired")
        if not time_shifted:
            if self._upstream_reaches(src[0], dst[0]):
                raise CycleWithoutTimeShift(
                    f"link {src[0]}->{dst[0]} closes a cycle with no time-shifted edge"
                )
            self._upstream[dst[0]].add(src[0])
        self._inputs[dst] = (src, time_shifted)

    def _topological_order(self) -> list[str]:
        """Repeatedly take the earliest-registered simulator whose unshifted
        producers have all been taken; connect() keeps the graph acyclic."""
        ordered: list[str] = []
        while len(ordered) < len(self._sims):
            ordered.append(next(
                sim_id for sim_id in self._sims
                if sim_id not in ordered and self._upstream[sim_id].issubset(ordered)
            ))
        return ordered

    def run(self, until: int) -> RunReport:
        if not self._sims:
            raise KernelError("no simulators registered")
        if until <= 0:
            raise KernelError("until must be > 0")
        # per simulator: (attr, source endpoint, time_shifted); an unwired
        # input's source is None, which no value is keyed by
        schedule = [
            (sim_id, self._sims[sim_id], [
                (attr, *self._inputs.get((sim_id, *attr), (None, False)))
                for attr in self._sims[sim_id].desc.consumes
            ])
            for sim_id in self._topological_order()
        ]
        shifted_sources = {src for src, shifted in self._inputs.values() if shifted}
        values: dict[Endpoint, Any] = {}
        times = range(0, until, self._step_s)
        started = time.perf_counter()
        for t in times:
            # what each time-shifted source held when this step began
            earlier = {src: values.get(src) for src in shifted_sources}
            for sim_id, sim, plan in schedule:
                inputs = {
                    attr: (earlier if shifted else values).get(src)
                    for attr, src, shifted in plan
                }
                try:
                    outputs = sim.step_fn(t, inputs) or {}
                except Exception as exc:
                    raise SimulatorFault(sim_id, t, exc) from exc
                for attr, value in outputs.items():
                    if attr not in sim.provides:
                        raise SimulatorFault(
                            sim_id, t, KeyError(f"undeclared output {attr}")
                        )
                    values[(sim_id, *attr)] = value
        return RunReport(
            until=until,
            step_counts=dict.fromkeys(self._sims, len(times)),
            wall_seconds=time.perf_counter() - started,
        )
