"""Span tracing around the program's layer boundaries, from outside the program.

`instrument` replaces the names that callers resolve at run time (module
attributes and class methods) with wrappers that record one span per call.
A span is (run id, parent span, name, start ns, end ns); spans are kept in
flat in-memory arrays and written out once, at the end. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.run = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.run_id = 0
        # values observed at the boundaries (iterations, probes, ...) by key
        self.observed: dict[str, list[float]] = defaultdict(list)
        self.network = None  # the network of the run in progress

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> None:
        self._stack.append(len(self.start))
        self.run.append(self.run_id)
        self.parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.name.append(nid)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())

    def _close(self) -> None:
        self.end[self._stack.pop()] = time.perf_counter_ns()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace `owner.attr` by a traced wrapper; `observe(args, kwargs,
        result)` runs after each call that returns."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def spans(self) -> dict[str, np.ndarray]:
        """The span columns, plus `dur` and `self` (duration minus the
        durations of direct children), in nanoseconds."""
        cols = {k: np.frombuffer(getattr(self, k), dtype=np.int64)
                for k in ("run", "parent", "name", "start", "end")}
        cols["dur"] = cols["end"] - cols["start"]
        child = np.zeros(len(cols["dur"]), dtype=np.int64)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], cols["dur"][has_parent])
        cols["self"] = cols["dur"] - child
        return cols

    def write(self, path: str) -> None:
        """Save the spans as numpy arrays, one per column (`numpy.load(path)`);
        `names` maps the `name` column to span names."""
        cols = self.spans()
        np.savez(path, names=np.array(self.names), **{k: cols[k] for k in
                 ("run", "parent", "name", "start", "end", "self")})


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    from gridcosim import attacker, devices, ems, iec104, kernel, netsim, pcap, scenario
    from gridcosim.grid import model as grid_model

    obs = tracer.observed
    tracer.wrap(scenario, "load_scenario", "scenario.load_scenario")
    tracer.wrap(scenario, "run_scenario", "scenario.run_scenario")
    tracer.wrap(kernel.Kernel, "run", "kernel.run")

    register = kernel.Kernel.register_simulator

    def traced_register(self, desc, step_fn):
        # simulator ids are grid, mtu, attacker, rtu_<name> and ems_<name>
        nid = tracer.name_id("step." + desc.id.split("_")[0])

        def traced_step(t, inputs):
            tracer._open(nid)
            try:
                return step_fn(t, inputs)
            finally:
                tracer._close()
                log = tracer.network.packet_log if tracer.network is not None else ()
                if log:
                    obs["netsim.clock_lead_s"].append(log[-1].t_us / 1e6 - t)

        return register(self, desc, traced_step)

    kernel.Kernel.register_simulator = traced_register

    def on_solve(_args, _kwargs, solution):
        obs["grid.newton_iters"].append(solution.iterations)
        obs["grid.buses"].append(len(solution.vm_pu))

    # scenario imports these by name, so patch the names it resolves
    tracer.wrap(scenario, "run_power_flow", "grid.run_power_flow", on_solve)
    tracer.wrap(scenario, "measurements_at", "grid.measurements_at")

    tracer.wrap(iec104, "encode", "iec104.encode")
    tracer.wrap(iec104, "decode_stream", "iec104.decode_stream",
                lambda _a, _k, result: obs["iec104.apdus_decoded"].append(len(result[0])))

    tracer.wrap(netsim.TcpConnection, "send", "netsim.send")
    tracer.wrap(netsim.Network, "path_latency_us", "netsim.path_latency_us")
    tracer.wrap(
        netsim.Network, "scan_subnet", "netsim.scan_subnet",
        lambda _a, kwargs, report: obs["netsim.scan_probes"].append(
            len(report) * len(kwargs.get("ports", netsim.COMMON_SCAN_PORTS))
        ),
    )

    def on_topology(_args, _kwargs, network):
        tracer.network = network  # run_scenario loads the topology last

    tracer.wrap(netsim, "load_topology", "netsim.load_topology", on_topology)
    for module in (scenario, netsim, grid_model):
        tracer.wrap(module, "parse_config", "configfile.parse_config")

    tracer.wrap(pcap, "build_frame", "pcap.build_frame")
    tracer.wrap(netsim, "write_pcap", "pcap.write_pcap")

    tracer.wrap(devices.Rtu, "report", "devices.rtu_report")
    tracer.wrap(devices.Mtu, "poll", "devices.mtu_poll")
    tracer.wrap(devices.Mtu, "_on_data", "devices.mtu_on_data")

    tracer.wrap(ems, "ems_step", "ems.ems_step")
    for kind in ("scan", "rce", "pe", "manipulate"):
        tracer.wrap(attacker.Attacker, f"stage_{kind}", f"attacker.stage_{kind}",
                    lambda _a, _k, _r: obs["attacker.stages_ok"].append(1))

