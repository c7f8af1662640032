"""Time-discrete co-simulation kernel.

Registered simulators are stepped at every multiple of their step size on a
shared integer-second clock. Within a timestep they run in topological order
of the unshifted data links, ties broken by registration order. Data moves
across links between steps: an unshifted link delivers the producer value of
the same timestep, a time-shifted link the value of the producer's previous
step (its declared default at t=0).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

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


@dataclass(frozen=True)
class DataLink:
    link_id: int
    src: Endpoint
    dst: Endpoint
    time_shifted: bool = False
    default: Any = None


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
    def __init__(self):
        self._descriptors: dict[str, SimulatorDescriptor] = {}
        self._step_fns: dict[str, StepFn] = {}
        self._order: list[str] = []          # registration order
        self._links: list[DataLink] = []
        self._running = False
        self.now = 0

    def register_simulator(self, desc: SimulatorDescriptor, step_fn: StepFn) -> str:
        if self._running:
            raise KernelError("cannot register while a run is in progress")
        if desc.id in self._descriptors:
            raise DuplicateId(f"simulator id '{desc.id}' already registered")
        if desc.step_size < 1:
            raise InvalidStepSize(f"step_size must be >= 1, got {desc.step_size}")
        self._descriptors[desc.id] = desc
        self._step_fns[desc.id] = step_fn
        self._order.append(desc.id)
        return desc.id

    def _check_endpoint(self, endpoint: Endpoint, direction: str) -> None:
        sim_id, entity, attr = endpoint
        desc = self._descriptors.get(sim_id)
        if desc is None:
            raise UnknownEndpoint(f"unknown simulator '{sim_id}'")
        attrs = desc.provides if direction == "provides" else desc.consumes
        if (entity, attr) not in attrs:
            raise UnknownEndpoint(
                f"simulator '{sim_id}' does not declare {direction} ({entity}, {attr})"
            )

    def _unshifted_reaches(self, start: str, goal: str) -> bool:
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(
                link.dst[0]
                for link in self._links
                if not link.time_shifted and link.src[0] == node
            )
        return False

    def connect(
        self,
        src: Endpoint,
        dst: Endpoint,
        *,
        time_shifted: bool = False,
        default: Any = None,
    ) -> int:
        self._check_endpoint(src, "provides")
        self._check_endpoint(dst, "consumes")
        if src[0] == dst[0]:
            raise KernelError("link endpoints must belong to different simulators")
        for link in self._links:
            if link.dst == dst:
                raise KernelError(f"input {dst} is already wired")
        if not time_shifted and self._unshifted_reaches(dst[0], src[0]):
            raise CycleWithoutTimeShift(
                f"link {src[0]}->{dst[0]} closes a cycle with no time-shifted edge"
            )
        link = DataLink(
            link_id=len(self._links),
            src=src,
            dst=dst,
            time_shifted=time_shifted,
            default=default,
        )
        self._links.append(link)
        return link.link_id

    def _topological_order(self) -> list[str]:
        index = {sim_id: i for i, sim_id in enumerate(self._order)}
        deps: dict[str, set[str]] = {sim_id: set() for sim_id in self._order}
        for link in self._links:
            if not link.time_shifted:
                deps[link.dst[0]].add(link.src[0])
        ordered: list[str] = []
        remaining = set(self._order)
        while remaining:
            ready = sorted(
                (sim for sim in remaining if not deps[sim] & remaining),
                key=index.__getitem__,
            )
            if not ready:  # connect() rejects unshifted cycles
                raise CycleWithoutTimeShift("unshifted link graph is cyclic")
            ordered.append(ready[0])
            remaining.remove(ready[0])
        return ordered

    def _validate_inputs(self) -> dict[str, dict[Attr, list[DataLink]]]:
        inbound: dict[str, dict[Attr, list[DataLink]]] = {
            sim_id: {} for sim_id in self._order
        }
        for link in self._links:
            sim_id, entity, attr = link.dst
            inbound[sim_id].setdefault((entity, attr), []).append(link)
        for sim_id, desc in self._descriptors.items():
            defaults = dict(desc.input_defaults)
            for consumed in desc.consumes:
                if consumed not in inbound[sim_id] and consumed not in defaults:
                    raise UnwiredInput(
                        f"input ({consumed[0]}, {consumed[1]}) of '{sim_id}' has no link or default"
                    )
        return inbound

    def run(self, until: int) -> RunReport:
        if not self._descriptors:
            raise KernelError("no simulators registered")
        if until <= 0:
            raise KernelError("until must be > 0")
        inbound = self._validate_inputs()
        topo = self._topological_order()
        values: dict[Endpoint, Any] = {}
        step_counts = {sim_id: 0 for sim_id in self._order}
        started = time.perf_counter()
        self._running = True
        try:
            t = 0
            while t < until:
                self.now = t
                snapshot = dict(values)  # values produced strictly before t
                for sim_id in topo:
                    desc = self._descriptors[sim_id]
                    if t % desc.step_size:
                        continue
                    defaults = dict(desc.input_defaults)
                    inputs: dict[Attr, Any] = {}
                    for consumed in desc.consumes:
                        links = inbound[sim_id].get(consumed)
                        if not links:
                            inputs[consumed] = defaults[consumed]
                            continue
                        link = links[0]
                        if link.time_shifted:
                            inputs[consumed] = snapshot.get(link.src, link.default)
                        else:
                            inputs[consumed] = values.get(link.src, link.default)
                    try:
                        outputs = self._step_fns[sim_id](t, inputs) or {}
                    except KernelError:
                        raise
                    except Exception as exc:
                        raise SimulatorFault(sim_id, t, exc) from exc
                    provided = set(desc.provides)
                    for attr, value in outputs.items():
                        if attr not in provided:
                            raise SimulatorFault(
                                sim_id, t, KeyError(f"undeclared output {attr}")
                            )
                        values[(sim_id, attr[0], attr[1])] = value
                    step_counts[sim_id] += 1
                next_times = [
                    (t // d.step_size + 1) * d.step_size
                    for d in self._descriptors.values()
                ]
                t = min(next_times)
        finally:
            self._running = False
        return RunReport(
            until=until,
            step_counts=step_counts,
            wall_seconds=time.perf_counter() - started,
        )
