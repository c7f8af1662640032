"""Time-discrete co-simulation kernel.

Registered simulators are stepped at every multiple of their step size on a
shared integer-second clock. Within a timestep they run in topological order
of the unshifted data links, ties broken by registration order. Data moves
across links between steps: an unshifted link delivers the producer value of
the same timestep, a time-shifted link the value of the producer's previous
step.

An input's default is declared once, in the consumer's
`SimulatorDescriptor.input_defaults`. It is read while the input is unwired,
and while it is wired but its producer has not yet provided a value (at t=0
over a time-shifted link, or when the producer never emits the attribute).
A wired input without a declared default reads None; an unwired one is an
error.
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


class InvalidStepSize(KernelError):
    pass


class UnknownEndpoint(KernelError):
    pass


class CycleWithoutTimeShift(KernelError):
    pass


class UnwiredInput(KernelError):
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
    step_size: int
    provides: tuple[Attr, ...] = ()
    consumes: tuple[Attr, ...] = ()
    input_defaults: tuple[tuple[Attr, Any], ...] = ()


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
    def __init__(self):
        self._sims: dict[str, _Registered] = {}                 # registration order
        self._inputs: dict[Endpoint, tuple[Endpoint, bool]] = {}  # dst -> (src, time_shifted)
        self._upstream: dict[str, set[str]] = {}                # consumer -> unshifted producers
        self._running = False

    def register_simulator(self, desc: SimulatorDescriptor, step_fn: StepFn) -> str:
        if self._running:
            raise KernelError("cannot register while a run is in progress")
        if desc.id in self._sims:
            raise DuplicateId(f"simulator id '{desc.id}' already registered")
        if desc.step_size < 1:
            raise InvalidStepSize(f"step_size must be >= 1, got {desc.step_size}")
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

    def _input_plan(self, sim_id: str) -> list[tuple[Attr, Endpoint | None, bool, Any]]:
        """(attr, source endpoint, time_shifted, default) per consumed attr;
        an unwired input has no source and must declare a default."""
        desc = self._sims[sim_id].desc
        defaults = dict(desc.input_defaults)
        plan = []
        for attr in desc.consumes:
            src, shifted = self._inputs.get((sim_id, *attr), (None, False))
            if src is None and attr not in defaults:
                raise UnwiredInput(
                    f"input ({attr[0]}, {attr[1]}) of '{sim_id}' has no link or default"
                )
            plan.append((attr, src, shifted, defaults.get(attr)))
        return plan

    def run(self, until: int) -> RunReport:
        if not self._sims:
            raise KernelError("no simulators registered")
        if until <= 0:
            raise KernelError("until must be > 0")
        schedule = [
            (sim_id, self._sims[sim_id], self._input_plan(sim_id))
            for sim_id in self._topological_order()
        ]
        step_sizes = [sim.desc.step_size for sim in self._sims.values()]
        values: dict[Endpoint, Any] = {}
        step_counts = dict.fromkeys(self._sims, 0)
        started = time.perf_counter()
        self._running = True
        try:
            t = 0
            while t < until:
                snapshot = dict(values)  # values produced strictly before t
                for sim_id, sim, plan in schedule:
                    if t % sim.desc.step_size:
                        continue
                    # an unwired input's source is None, which no value is keyed by
                    inputs = {
                        attr: (snapshot if shifted else values).get(src, default)
                        for attr, src, shifted, default in plan
                    }
                    try:
                        outputs = sim.step_fn(t, inputs) or {}
                    except KernelError:
                        raise
                    except Exception as exc:
                        raise SimulatorFault(sim_id, t, exc) from exc
                    for attr, value in outputs.items():
                        if attr not in sim.provides:
                            raise SimulatorFault(
                                sim_id, t, KeyError(f"undeclared output {attr}")
                            )
                        values[(sim_id, *attr)] = value
                    step_counts[sim_id] += 1
                t = min((t // size + 1) * size for size in step_sizes)
        finally:
            self._running = False
        return RunReport(
            until=until,
            step_counts=step_counts,
            wall_seconds=time.perf_counter() - started,
        )
