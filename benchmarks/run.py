"""gridcosim benchmark: scenario files to artifacts, end to end and per layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload feeder_grid --seed 1 --seconds 40 --trace 0

The workload's inputs are generated from --seed into .bench_work/<workload>/,
replacing the previous run's (so two runs of one workload must not overlap),
and driven only through `scenario.load_scenario` and `scenario.run_scenario`,
from one process with no extra threads. Each repetition loads and runs one
scenario; repetitions go round the workload's variants in full cycles until
--seconds have passed.

--trace 0 measures the end-to-end metrics. --trace 1 measures untraced for
half the time and traced for the other half, then prints the per-layer
metrics and the tracing overhead (traced minus untraced run_s), and writes
the spans to .bench_work/spans-<workload>.npz.

Every run checks its outputs and exits 1 when a check fails: no run ends in
SimulatorFault, every repetition of a variant writes the same manifest.txt
bytes as its first, read_pcap reads back every packet the network logged, and
reported points (ground_truth.csv rows) equal archived points (archive.csv
rows) plus RTU report-buffer drops. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, fields

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("feeder_grid", "scada_fleet", "bundled_sweep")
# run_s_tail is the value with ten samples above it; from 21 samples on
# that is at or above the median
MIN_SAMPLES = 21


class CheckFailed(Exception):
    pass


@dataclass
class VariantStats:
    """Per-variant output counts, taken from the first repetition's artifacts."""

    manifest: bytes
    horizon_s: int
    frames: int
    pcap_bytes: int
    reported: int
    archived: int
    dropped: int
    timeouts: int
    connect_failed: int
    csv_rows: int
    archive_off_grid: int


class Probe:
    """Counts, in every run, what the public API does not return: packets
    logged and frames written, RTU report-buffer evictions, and the MTU's timeout and
    connect-failed events. Each hook costs O(1) per call."""

    def __init__(self, devices, netsim):
        self.reset()
        probe = self

        class CountingDeque(collections.deque):
            def append(self, item):
                if self.maxlen is not None and len(self) == self.maxlen:
                    probe.dropped += 1
                super().append(item)

        # Rtu builds its report buffer from the name `deque` in devices
        devices.deque = CountingDeque

        mtu_init = devices.Mtu.__init__

        def capture_mtu(mtu, *args, **kwargs):
            mtu_init(mtu, *args, **kwargs)
            probe.mtus.append(mtu)

        devices.Mtu.__init__ = capture_mtu

        write_pcap = netsim.write_pcap

        def count_frames(path, records):
            probe.logged = len(records)
            probe.frames = write_pcap(path, records)
            return probe.frames

        netsim.write_pcap = count_frames

    def reset(self):
        self.dropped = 0
        self.logged = None
        self.frames = None
        self.mtus = []

    def events(self, kind: str) -> int:
        return sum(1 for mtu in self.mtus for _t, event, _rtu in mtu.events if event == kind)


def _data_rows(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


class Runner:
    def __init__(self, scenario, pcap, kernel, variants, probe):
        self.scenario, self.pcap, self.kernel = scenario, pcap, kernel
        self.variants = variants
        self.probe = probe
        self.stats: dict[str, VariantStats] = {}
        self.attempted = 0

    def measure(self, seconds: float, min_samples: int = 1, first_rep: int = 0, tracer=None):
        """Repeat load + run over the variants in full cycles for `seconds`
        and at least `min_samples` repetitions; returns (variant, load_s,
        run_s) per repetition."""
        samples = []
        rep = first_rep
        deadline = time.perf_counter() + seconds
        while True:
            variant = self.variants[rep % len(self.variants)]
            if tracer is not None:
                tracer.run_id = rep
            self.probe.reset()
            self.attempted += 1
            t0 = time.perf_counter()
            loaded = self.scenario.load_scenario(variant.scenario_path)
            t1 = time.perf_counter()
            try:
                self.scenario.run_scenario(loaded, outdir=variant.outdir)
            except self.kernel.SimulatorFault as exc:
                raise CheckFailed(f"{variant.name}: run ended in SimulatorFault: {exc}") from exc
            t2 = time.perf_counter()
            self.check(variant, loaded.horizon_s, loaded.step_s)
            samples.append((variant.name, t1 - t0, t2 - t1))
            rep += 1
            if (rep % len(self.variants) == 0 and len(samples) >= min_samples
                    and time.perf_counter() >= deadline):
                return samples

    def check(self, variant, horizon_s: int, step_s: int) -> None:
        out = variant.outdir
        with open(os.path.join(out, "manifest.txt"), "rb") as fh:
            manifest = fh.read()
        seen = self.stats.get(variant.name)
        if seen is not None:
            if manifest != seen.manifest:
                raise CheckFailed(f"{variant.name}: manifest differs from the first repetition")
            if (self.probe.frames, self.probe.dropped) != (seen.frames, seen.dropped):
                raise CheckFailed(f"{variant.name}: frame or drop count differs between repetitions")
            return
        # later repetitions write byte-identical artifacts (same manifest),
        # so the artifact checks run once per variant
        pcap_path = os.path.join(out, "capture.pcap")
        read_back = len(self.pcap.read_pcap(pcap_path))
        if not read_back == self.probe.frames == self.probe.logged:
            raise CheckFailed(
                f"{variant.name}: read_pcap found {read_back} frames, write_pcap wrote "
                f"{self.probe.frames} of {self.probe.logged} logged packets"
            )
        truth = _data_rows(os.path.join(out, "ground_truth.csv"))
        archive = _data_rows(os.path.join(out, "archive.csv"))
        if len(truth) != len(archive) + self.probe.dropped:
            raise CheckFailed(
                f"{variant.name}: {len(truth)} points reported, {len(archive)} archived "
                f"+ {self.probe.dropped} dropped"
            )
        csv_rows = sum(
            len(_data_rows(os.path.join(out, name)))
            for name in ("ground_truth.csv", "archive.csv", "commands.csv",
                         "attack_trace.csv", "ems_decisions.csv")
        )
        self.stats[variant.name] = VariantStats(
            manifest=manifest,
            horizon_s=horizon_s,
            frames=self.probe.frames,
            pcap_bytes=os.path.getsize(pcap_path),
            reported=len(truth),
            archived=len(archive),
            dropped=self.probe.dropped,
            timeouts=self.probe.events("timeout"),
            connect_failed=self.probe.events("connect-failed"),
            csv_rows=csv_rows,
            archive_off_grid=sum(1 for row in archive if int(row.split(",", 1)[0]) % step_s),
        )

    def totals(self, samples) -> dict[str, int]:
        """Sums of the per-variant counts over the repetitions in `samples`."""
        keys = [f.name for f in fields(VariantStats) if f.name != "manifest"]
        return {key: sum(getattr(self.stats[name], key) for name, _, _ in samples)
                for key in keys}


def tail_percentile(values) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, and its value.

    Uses the nearest-rank definition: with n sorted samples, the value at
    rank n-10 has ten samples above it. Needs at least 11 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} samples: a tail needs at least 11")
    rank = n - 10
    return ordered[rank - 1], int(100 * rank / n)


def failed_ops(totals) -> float:
    """Reported points that never reach archive.csv, plus MTU timeouts and
    connect failures, as a share of reported points."""
    lost = totals["reported"] - totals["archived"] + totals["timeouts"] + totals["connect_failed"]
    return lost / totals["reported"]


def end_to_end(runner: Runner, samples) -> tuple[dict, list[str]]:
    """setup_s is the median load_scenario time. run_s is the mean
    run_scenario time, not the median: on a shared host whose throughput
    drifts by tens of percent over minutes, a run's median jumps between
    the slow and fast periods it caught, while the mean moves with the
    share of each, which roughly halves the run-to-run spread."""
    loads = [s[1] for s in samples]
    runs = [s[2] for s in samples]
    wall = sum(loads) + sum(runs)
    totals = runner.totals(samples)
    tail, pct = tail_percentile(runs)
    failed = failed_ops(totals)
    metrics = {
        "setup_s": (statistics.median(loads), "s"),
        "run_s": (statistics.fmean(runs), "s"),
        "run_s_tail": (tail, "s"),
        "sim_rate": (totals["horizon_s"] / wall, "s/s"),
        "frames_per_s": (totals["frames"] / wall, "1/s"),
        "points_per_s": (totals["archived"] / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "delivered_share": (1.0 - failed, "ratio"),
    }
    notes = [
        f"samples = {len(samples)} (load_scenario + run_scenario pairs)",
        f"run_s_tail = p{pct} of {len(runs)} run_s samples",
        f"failed_ops = {failed:.6f} ({totals['reported'] - totals['archived']} lost points, "
        f"{totals['timeouts']} timeouts, {totals['connect_failed']} connect failures "
        f"of {totals['reported']} reported points)",
    ]
    return metrics, notes


def per_layer(runner: Runner, tracer, samples, untraced) -> dict:
    import numpy as np

    cols = tracer.spans()
    reps = len(samples)
    obs = tracer.observed
    names = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return cols["name"] == names.get(name, -1)

    def count(name):
        return float(mask(name).sum())

    def mean(name, col, scale):
        m = mask(name)
        return float(cols[col][m].mean()) * scale if m.any() else 0.0

    def total_per_rep(name, scale):
        return float(cols["dur"][mask(name)].sum()) * scale / reps

    ms, us, s = 1e-6, 1e-3, 1e-9
    solve_ms = cols["dur"][mask("grid.run_power_flow")] * ms
    if len(solve_ms) >= 11:
        solve_tail = tail_percentile(solve_ms)[0]
    else:
        solve_tail = float(solve_ms.max(initial=0.0))
    step_names = [n for n in tracer.names if n.startswith("step.")]
    steps = sum(count(n) for n in step_names)
    kernel_self = float(cols["self"][mask("kernel.run")].sum())

    # flush: from the end of Kernel.run to the end of run_scenario, per run
    run_end = cols["end"][mask("scenario.run_scenario")]
    kernel_end = cols["end"][mask("kernel.run")]
    flush_s = float(np.median(run_end - kernel_end)) * s

    totals = runner.totals(samples)
    traced_run_s = statistics.fmean(x[2] for x in samples)
    untraced_run_s = statistics.fmean(x[2] for x in untraced)
    metrics = {
        "grid.solves": (count("grid.run_power_flow") / reps, "count"),
        "grid.newton_iters": (float(np.mean(obs["grid.newton_iters"] or [0])), "count"),
        "grid.buses": (float(max(obs["grid.buses"] or [0])), "count"),
        "grid.solve_ms.p50": (float(np.median(solve_ms)) if len(solve_ms) else 0.0, "ms"),
        "grid.solve_ms.tail": (solve_tail, "ms"),
        "grid.step_self_ms": (mean("step.grid", "self", ms), "ms"),
        "grid.measurements": (count("grid.measurements_at") / reps, "count"),
        "iec104.apdus_encoded": (count("iec104.encode") / reps, "count"),
        "iec104.encode_us": (mean("iec104.encode", "dur", us), "us"),
        "iec104.apdus_decoded": (sum(obs["iec104.apdus_decoded"]) / reps, "count"),
        "iec104.decode_stream_us": (mean("iec104.decode_stream", "dur", us), "us"),
        "netsim.segments": (count("netsim.send") / reps, "count"),
        "netsim.send_self_us": (mean("netsim.send", "self", us), "us"),
        "netsim.route_calls": (count("netsim.path_latency_us") / reps, "count"),
        "netsim.route_us": (mean("netsim.path_latency_us", "dur", us), "us"),
        "netsim.scan_probes": (sum(obs["netsim.scan_probes"]) / reps, "count"),
        "netsim.topology_loads": (count("netsim.load_topology") / reps, "count"),
        "netsim.clock_lead_s": (float(max(obs["netsim.clock_lead_s"] or [0.0])), "s"),
        "configfile.parse_ms": (total_per_rep("configfile.parse_config", ms), "ms"),
        "scenario.load_s": (mean("scenario.load_scenario", "dur", s), "s"),
        "scenario.flush_s": (flush_s, "s"),
        "scenario.csv_rows": (totals["csv_rows"] / reps, "count"),
        "scenario.failed_ops": (failed_ops(totals), "ratio"),
        "pcap.frames": (totals["frames"] / reps, "count"),
        "pcap.bytes": (totals["pcap_bytes"] / reps, "B"),
        "pcap.build_frame_us": (mean("pcap.build_frame", "dur", us), "us"),
        "pcap.write_s": (total_per_rep("pcap.write_pcap", s), "s"),
        "devices.points_reported": (totals["reported"] / reps, "count"),
        "devices.points_archived": (totals["archived"] / reps, "count"),
        "devices.buffer_drops": (totals["dropped"] / reps, "count"),
        "devices.archive_off_grid": (totals["archive_off_grid"] / reps, "count"),
        "devices.rtu_report_self_ms": (mean("devices.rtu_report", "self", ms), "ms"),
        "devices.mtu_on_data_self_us": (mean("devices.mtu_on_data", "self", us), "us"),
        "devices.mtu_timeouts": (totals["timeouts"] / reps, "count"),
        "devices.mtu_connect_failed": (totals["connect_failed"] / reps, "count"),
        "kernel.steps": (steps / reps, "count"),
        "kernel.dispatch_us_per_step": (kernel_self * us / steps if steps else 0.0, "us"),
        "ems.steps": (count("ems.ems_step") / reps, "count"),
        "ems.step_us": (mean("ems.ems_step", "dur", us), "us"),
        "attacker.stages_ok": (len(obs["attacker.stages_ok"]) / reps, "count"),
        **{f"attacker.stage_s.{kind}": (mean(f"attacker.stage_{kind}", "dur", s), "s")
           for kind in ("scan", "rce", "pe", "manipulate")},
        "trace.run_s_untraced": (untraced_run_s, "s"),
        "trace.run_s_traced": (traced_run_s, "s"),
        "trace.overhead_s": (traced_run_s - untraced_run_s, "s"),
    }
    return metrics


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # the program is the checkout's own source tree, never an installed copy
    if not os.path.isfile(os.path.join(SRC, "gridcosim", "__init__.py")):
        print(f"error: no gridcosim sources under {SRC}", file=sys.stderr)
        return 2
    # one process, no extra threads: keep OpenBLAS from starting workers
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from gridcosim import devices, kernel, netsim, pcap, scenario

    import tracing
    import workloads

    workdir = os.path.join(WORKDIR, args.workload)
    if args.workload == "bundled_sweep":
        variants = workloads.bundled_sweep(args.seed, workdir, os.path.join(ROOT, "scenarios"))
    else:
        variants = getattr(workloads, args.workload)(args.seed, workdir)

    probe = Probe(devices, netsim)
    runner = Runner(scenario, pcap, kernel, variants, probe)
    try:
        if not args.trace:
            samples = runner.measure(args.seconds, MIN_SAMPLES)
            metrics, notes = end_to_end(runner, samples)
        else:
            untraced = runner.measure(args.seconds / 2)
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            samples = runner.measure(args.seconds / 2, first_rep=len(untraced), tracer=tracer)
            spans_path = os.path.join(WORKDIR, f"spans-{args.workload}.npz")
            tracer.write(spans_path)
            metrics = per_layer(runner, tracer, samples, untraced)
            notes = [f"traced samples = {len(samples)}, untraced samples = {len(untraced)}",
                     f"spans = {len(tracer.start)} written to {os.path.relpath(spans_path, ROOT)}"]
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(_result(False, runner.attempted, 1, {}))
        return 1

    print(f"workload = {args.workload}  seed = {args.seed}  seconds = {args.seconds:g}  "
          f"trace = {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(_result(True, runner.attempted, 0, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
