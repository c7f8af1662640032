"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The capture checks use an independent dissector written in this
module from the wire formats alone; it shares no code with the package's
own decoders.
"""

import csv
import itertools
import os
import struct
import time
from dataclasses import replace

import numpy as np
import pytest

from gridcosim import ems, iec104
from gridcosim.grid.model import Bus, GridModel, Line, load_grid, validate
from gridcosim.grid.powerflow import run_power_flow
from gridcosim.grid.profiles import bus_injections, element_values_at, load_profiles
from gridcosim.scenario import load_scenario, run_scenario

# ---------------------------------------------------------------------------
# independent dissector (pcap / ethernet / ipv4 / tcp / iec104), test-side only
# ---------------------------------------------------------------------------


def _ones_sum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def dissect_capture(path):
    """Strict pcap walk: validates headers, lengths and checksums, and
    returns (packets, warnings). Any deviation is a warning."""
    warnings = []
    packets = []
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 24:
        return packets, ["file shorter than global header"]
    magic, vmaj, vmin, _tz, _sig, snaplen, linktype = struct.unpack("<IHHiIII", blob[:24])
    if magic != 0xA1B2C3D4:
        warnings.append(f"magic 0x{magic:08x}")
    if (vmaj, vmin) != (2, 4):
        warnings.append(f"version {vmaj}.{vmin}")
    if linktype != 1:
        warnings.append(f"linktype {linktype}")
    offset = 24
    last_ts = -1
    while offset < len(blob):
        if offset + 16 > len(blob):
            warnings.append("truncated record header")
            break
        ts_sec, ts_usec, incl, orig = struct.unpack("<IIII", blob[offset : offset + 16])
        offset += 16
        if ts_usec >= 1_000_000:
            warnings.append("ts_usec out of range")
        ts = ts_sec * 1_000_000 + ts_usec
        if ts < last_ts:
            warnings.append("timestamps decrease")
        last_ts = ts
        if incl != orig or incl > snaplen or offset + incl > len(blob):
            warnings.append("bad record length")
            break
        frame = blob[offset : offset + incl]
        offset += incl
        if len(frame) < 14 + 20 + 20:
            warnings.append("frame too short")
            continue
        if struct.unpack(">H", frame[12:14])[0] != 0x0800:
            warnings.append("not IPv4")
            continue
        ip = frame[14:]
        ihl = (ip[0] & 0x0F) * 4
        if ip[0] >> 4 != 4 or ihl < 20:
            warnings.append("bad IP version/IHL")
            continue
        total_len = struct.unpack(">H", ip[2:4])[0]
        if total_len != len(frame) - 14:
            warnings.append("IP total length mismatch")
        if _ones_sum(ip[:ihl]) != 0xFFFF:
            warnings.append("IP checksum invalid")
        if ip[9] != 6:
            warnings.append("not TCP")
            continue
        tcp = ip[ihl:total_len]
        if len(tcp) < 20:
            warnings.append("TCP header truncated")
            continue
        pseudo = ip[12:20] + struct.pack(">BBH", 0, 6, len(tcp))
        if _ones_sum(pseudo + tcp) != 0xFFFF:
            warnings.append("TCP checksum invalid")
        data_off = (tcp[12] >> 4) * 4
        packets.append(
            {
                "t_us": ts,
                "src": ".".join(str(b) for b in ip[12:16]),
                "dst": ".".join(str(b) for b in ip[16:20]),
                "sport": struct.unpack(">H", tcp[0:2])[0],
                "dport": struct.unpack(">H", tcp[2:4])[0],
                "flags": tcp[13] & 0x3F,
                "seq": struct.unpack(">I", tcp[4:8])[0],
                "payload": tcp[data_off:],
            }
        )
    return packets, warnings


_IEC_SIZES = {1: 1, 13: 5, 45: 1, 50: 5, 100: 1}


def dissect_iec104(stream: bytes):
    """Standalone 104 dissector over a reassembled stream; returns
    (frames, leftover, errors)."""
    frames = []
    errors = []
    pos = 0
    while pos + 2 <= len(stream):
        if stream[pos] != 0x68:
            errors.append(f"start byte 0x{stream[pos]:02x} at {pos}")
            break
        length = stream[pos + 1]
        if not 4 <= length <= 253:
            errors.append(f"APCI length {length}")
            break
        if pos + 2 + length > len(stream):
            break  # partial trailing frame
        apdu = stream[pos + 2 : pos + 2 + length]
        pos += 2 + length
        ctrl = apdu[:4]
        if ctrl[0] & 1 == 0:
            ns = struct.unpack("<H", ctrl[0:2])[0] >> 1
            nr = struct.unpack("<H", ctrl[2:4])[0] >> 1
            body = apdu[4:]
            if len(body) < 6:
                errors.append("ASDU shorter than header")
                continue
            type_id, vsq, cot, orig, ca = struct.unpack("<BBBBH", body[:6])
            if type_id not in _IEC_SIZES:
                errors.append(f"type id {type_id}")
                continue
            count = vsq & 0x7F
            obj_size = 3 + _IEC_SIZES[type_id]
            objs = body[6:]
            if vsq & 0x80 or len(objs) != count * obj_size:
                errors.append("object block size mismatch")
                continue
            objects = []
            for i in range(count):
                chunk = objs[i * obj_size : (i + 1) * obj_size]
                ioa = chunk[0] | (chunk[1] << 8) | (chunk[2] << 16)
                if type_id in (13, 50):
                    value = struct.unpack("<f", chunk[3:7])[0]
                else:
                    value = chunk[3]
                objects.append((ioa, value))
            frames.append(("I", ns, nr, type_id, cot, ca, objects))
        elif ctrl[0] & 3 == 1:
            frames.append(("S", struct.unpack("<H", ctrl[2:4])[0] >> 1))
        else:
            frames.append(("U", ctrl[0]))
    return frames, stream[pos:], errors


def rows_of(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def datapoint_index(scenario):
    index = {}
    for config in scenario.rtus:
        for dp in config.monitor:
            index[(config.name, dp.ioa)] = (dp.entity, dp.fieldname)
    return index


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def attack_run(attack_demo_path, tmp_path_factory):
    scenario = load_scenario(attack_demo_path)
    out = run_scenario(scenario, outdir=str(tmp_path_factory.mktemp("attack1")))
    return scenario, out


@pytest.fixture(scope="module")
def flex_run(flex_demo_path, tmp_path_factory):
    scenario = load_scenario(flex_demo_path)
    out = run_scenario(scenario, outdir=str(tmp_path_factory.mktemp("flex")))
    return scenario, out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_power_flow_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    kv, base_mva = 20.0, 1.0
    z_base = kv * kv / base_mva
    mutually_converged = 0
    for _ in range(200):
        z = rng.uniform(0.01, 0.3) * np.exp(1j * rng.uniform(0.2, 1.45))
        s = rng.uniform(0.0, 0.3) * np.exp(1j * rng.uniform(-0.6, 0.6))
        # independent fixed-point oracle
        v2 = 1.0 + 0.0j
        oracle = None
        for _i in range(500):
            nxt = 1.0 - z * np.conj(s) / np.conj(v2)
            if abs(nxt - v2) < 1e-10:
                oracle = nxt
                break
            v2 = nxt
        model = GridModel(
            buses=[Bus("a", kv, "slack"), Bus("b", kv, "pq")],
            lines=[Line("l", "a", "b", z.real * z_base, z.imag * z_base, 1.0)],
            trafos=[], loads=[], sgens=[], base_mva=base_mva,
        )
        validate(model)
        solution = run_power_flow(model, {"b": (-s.real * 1000.0, -s.imag * 1000.0)})
        if oracle is None or not solution.converged:
            continue
        mutually_converged += 1
        assert abs(solution.vm_pu["b"] - abs(oracle)) < 1e-6
    elapsed = time.perf_counter() - started
    assert mutually_converged >= 150
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 PASS power-flow oracle equivalence "
        f"({mutually_converged}/200 mutually converged, |dV| < 1e-6 pu, {elapsed:.2f}s)"
    )


def test_criterion_2_power_conservation_24h(feeder7_path, feeder7_profiles_path):
    started = time.perf_counter()
    model = load_grid(feeder7_path)
    profiles = load_profiles(feeder7_profiles_path)
    steps = 0
    worst = 0.0
    for t in range(0, 86400, 900):
        values = element_values_at(model, profiles, t)
        solution = run_power_flow(model, bus_injections(model, values))
        assert solution.converged, f"t={t}"
        total_inj = sum(p for p, _q in solution.injections_kw.values())
        residual_pu = abs(solution.slack_p_kw + total_inj - solution.losses_kw) / (
            model.base_mva * 1000.0
        )
        worst = max(worst, residual_pu)
        assert residual_pu < 1e-6, f"t={t}: residual {residual_pu:.2e} pu"
        steps += 1
    elapsed = time.perf_counter() - started
    assert steps == 96
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 2 PASS power conservation over 24h "
        f"({steps} steps, worst residual {worst:.2e} pu, {elapsed:.2f}s)"
    )


def test_criterion_3_iec104_codec():
    started = time.perf_counter()
    # derived byte vectors, cross-checked via the independent dissector
    startdt = bytes.fromhex("680407000000")
    frames, rest, errors = dissect_iec104(startdt)
    assert frames == [("U", 0x07)] and not rest and not errors
    assert iec104.encode(iec104.u_frame(iec104.U_STARTDT_ACT)) == startdt

    s_nr3 = bytes.fromhex("680401000600")
    frames, rest, errors = dissect_iec104(s_nr3)
    assert frames == [("S", 3)] and not rest and not errors
    assert iec104.encode(iec104.s_frame(3)) == s_nr3

    meas = bytes.fromhex("681200000000" "0d0103000100" "640000" "0000c03f" "00")
    frames, rest, errors = dissect_iec104(meas)
    assert not errors and not rest
    kind, ns, nr, type_id, cot, ca, objects = frames[0]
    assert (kind, ns, nr, type_id, cot, ca) == ("I", 0, 0, 13, 3, 1)
    assert objects == [(100, 1.5)]
    asdu = iec104.Asdu(
        type_id=13, cot=3, common_address=1,
        objects=(iec104.InfoObject(ioa=100, value=1.5, quality=0),),
    )
    assert iec104.encode(iec104.i_frame(0, 0, asdu)) == meas

    # roundtrip property over 10^4 generated APDUs
    rng = np.random.default_rng(10_000 + 104)
    type_ids = (1, 13, 45, 50, 100)
    failures = 0
    for _ in range(10_000):
        pick = rng.integers(0, 7)
        if pick == 0:
            apdu = iec104.u_frame(
                [0x07, 0x0B, 0x13, 0x23, 0x43, 0x83][rng.integers(0, 6)]
            )
        elif pick == 1:
            apdu = iec104.s_frame(int(rng.integers(0, 32768)))
        else:
            type_id = type_ids[rng.integers(0, len(type_ids))]
            objects = []
            for _o in range(rng.integers(1, 6)):
                if type_id in (13, 50):
                    value = float(
                        np.float32(rng.uniform(-1e6, 1e6) * 10.0 ** int(rng.integers(-3, 4)))
                    )
                    quality = int(rng.integers(0, 256))
                elif type_id == 1:
                    value = int(rng.integers(0, 2))
                    quality = int(rng.integers(0, 16)) << 4
                else:
                    value = int(rng.integers(0, 256))
                    quality = 0
                objects.append(
                    iec104.InfoObject(
                        ioa=int(rng.integers(0, 0x1000000)), value=value, quality=quality
                    )
                )
            apdu = iec104.i_frame(
                int(rng.integers(0, 32768)),
                int(rng.integers(0, 32768)),
                iec104.Asdu(
                    type_id=type_id,
                    cot=int(rng.integers(0, 256)),
                    common_address=int(rng.integers(0, 65536)),
                    objects=tuple(objects),
                    originator=int(rng.integers(0, 256)),
                ),
            )
        decoded, used = iec104.decode(iec104.encode(apdu))
        if decoded != apdu or used != len(iec104.encode(apdu)):
            failures += 1
    assert failures == 0

    # fuzz totality: 10^6 random buffers, half forced to look frame-like
    fuzz_rng = np.random.default_rng(1_000_000 + 104)
    lengths = fuzz_rng.integers(0, 48, size=1_000_000)
    blob = fuzz_rng.integers(0, 256, size=int(lengths.sum()), dtype=np.uint8).tobytes()
    crashes = 0
    pos = 0
    for i, n in enumerate(lengths):
        buf = blob[pos : pos + n]
        pos += n
        if i % 2 and n >= 2:  # bias half the corpus toward plausible frames
            buf = b"\x68" + bytes([n % 254]) + buf[2:]
        try:
            iec104.decode(buf)
        except iec104.Iec104Error:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 3 PASS iec104 codec (3 byte vectors exact, 10^4 roundtrips, "
        f"10^6 fuzz buffers, 0 failures, {elapsed:.1f}s)"
    )


def test_criterion_4_attack_replication(attack_run):
    started = time.perf_counter()
    scenario, out = attack_run

    trace = rows_of(os.path.join(out.outdir, "attack_trace.csv"))
    assert [r["stage"] for r in trace] == ["S1", "S2", "S3", "S4"]
    assert all(r["outcome"] == "success" for r in trace)
    s4_time = int(trace[-1]["t"])
    first_divergent = s4_time + scenario.rtus[0].report_period  # next report period

    truth = {
        (int(r["t"]), r["element"], r["field"]): float(r["value"])
        for r in rows_of(os.path.join(out.outdir, "ground_truth.csv"))
    }
    index = datapoint_index(scenario)
    attacked_rtu = "rtu1"
    checked_pre = checked_post = 0
    for row in rows_of(os.path.join(out.outdir, "archive.csv")):
        t, rtu, ioa = int(row["t"]), row["rtu"], int(row["ioa"])
        value = float(row["value"])
        entity, fieldname = index[(rtu, ioa)]
        true_value = truth[(t, entity, fieldname)]
        if rtu != attacked_rtu or t < first_divergent:
            assert value == true_value, (t, rtu, ioa)
            checked_pre += 1
        else:
            assert value == 0.5 * true_value, (t, rtu, ioa)
            checked_post += 1
    assert checked_pre > 0 and checked_post > 0

    packets, warnings = dissect_capture(os.path.join(out.outdir, "capture.pcap"))
    assert not warnings
    kali_ip = "10.0.2.99"
    syn_probes = [
        p for p in packets if p["src"] == kali_ip and p["flags"] == 0x02 and not p["payload"]
    ]
    assert len(syn_probes) >= 24  # 3 hosts x 8 default ports
    exploit = [p for p in packets if b"cmd=whoami" in p["payload"]]
    assert len(exploit) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 4 PASS attack replication (4 stage successes, "
        f"{checked_pre} exact pre/unaffected rows, {checked_post} exact 0.5x rows, "
        f"{len(syn_probes)} scan probes, whoami exploit on the wire, {elapsed:.2f}s)"
    )


def test_criterion_5_ground_truth_immunity(attack_run, tmp_path):
    started = time.perf_counter()
    scenario, out = attack_run
    clean = run_scenario(replace(scenario, attack_plan=None), outdir=str(tmp_path / "clean"))
    with open(os.path.join(out.outdir, "ground_truth.csv"), "rb") as fh:
        attacked_bytes = fh.read()
    with open(os.path.join(clean.outdir, "ground_truth.csv"), "rb") as fh:
        clean_bytes = fh.read()
    assert attacked_bytes == clean_bytes
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 5 PASS ground-truth immunity "
        f"(bit-identical CSVs, {len(attacked_bytes)} bytes, {elapsed:.2f}s)"
    )


def test_criterion_6_determinism_master(attack_run, tmp_path):
    started = time.perf_counter()
    scenario, out = attack_run
    second = run_scenario(scenario, outdir=str(tmp_path / "second"))
    assert out.manifest == second.manifest
    assert set(out.manifest) >= {"capture.pcap", "ground_truth.csv", "archive.csv"}
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 6 PASS determinism master "
        f"({len(out.manifest)} artifact hashes identical across runs, {elapsed:.2f}s)"
    )


def test_criterion_7_ems_properties(flex_run):
    started = time.perf_counter()
    _scenario, out = flex_run
    report = out.kpi_reports["home1"]
    assert report.run.import_kwh < report.baseline.import_kwh

    # SoC bounds over a 10-scenario seeded sweep
    rng = np.random.default_rng(77)
    for _ in range(10):
        battery = ems.Battery(
            capacity_kwh=float(rng.uniform(4, 12)), p_max_kw=float(rng.uniform(2, 6)),
            eta_charge=0.95, eta_discharge=0.95, soc_kwh=0.0,
        )
        battery = ems.Battery(
            capacity_kwh=battery.capacity_kwh, p_max_kw=battery.p_max_kw,
            eta_charge=0.95, eta_discharge=0.95,
            soc_kwh=float(rng.uniform(0, battery.capacity_kwh)),
        )
        state = battery
        for i in range(96):
            load = float(rng.uniform(0, 8))
            pv = max(0.0, float(rng.normal(3, 2.5)))
            _decision, state = ems.ems_step(state, i * 900, 900, load, pv)
            assert 0.0 - 1e-9 <= state.soc_kwh <= state.capacity_kwh + 1e-9

    # DSO-limit dominance on the exhaustive small-scenario grid
    nets = (-6.0, -2.0, 0.0, 2.0, 6.0)
    limits = (1.0, 3.0, 8.0)
    targets = (-4.0, 0.0, 4.0)
    p_maxes = (2.0, 5.0, 10.0)
    cases = 0
    for net, limit, target, p_max in itertools.product(nets, limits, targets, p_maxes):
        battery = ems.Battery(
            capacity_kwh=1000.0, p_max_kw=p_max, eta_charge=1.0, eta_discharge=1.0,
            soc_kwh=500.0,
        )
        feasible = (-limit <= net + p_max) and (net - p_max <= limit)
        decision, _ = ems.ems_step(
            battery, 0, 900, load_kw=max(net, 0.0), pv_kw=max(-net, 0.0),
            dso_limits=(ems.DsoLimit(p_max_import_kw=limit, p_max_export_kw=limit),),
            vpp_schedules=(ems.VppSchedule(target_p_kw=target),),
        )
        if feasible:
            cases += 1
            assert -limit - 1e-9 <= decision.grid_exchange_kw <= limit + 1e-9
    assert cases > 50
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 7 PASS ems properties (import {report.run.import_kwh:.2f} < "
        f"baseline {report.baseline.import_kwh:.2f} kWh, SoC bounds over 10 sweeps, "
        f"dominance on {cases} feasible grid cases, {elapsed:.2f}s)"
    )


def test_criterion_8_pcap_external_validity(attack_run):
    started = time.perf_counter()
    _scenario, out = attack_run
    packets, warnings = dissect_capture(os.path.join(out.outdir, "capture.pcap"))
    assert warnings == []
    assert packets

    streams = {}
    for p in packets:
        if 2404 in (p["sport"], p["dport"]) and p["payload"]:
            key = (p["src"], p["sport"], p["dst"], p["dport"])
            streams.setdefault(key, bytearray()).extend(p["payload"])
    assert streams
    total_frames = 0
    seen_types = set()
    for key, stream in streams.items():
        frames, leftover, errors = dissect_iec104(bytes(stream))
        assert errors == [], (key, errors)
        assert leftover == b"", key
        total_frames += len(frames)
        seen_types.update(f[3] for f in frames if f[0] == "I")
    assert total_frames > 100
    assert 13 in seen_types and 100 in seen_types  # measurements and interrogations

    # every archived row corresponds to exactly one measurement I-frame
    from collections import Counter

    wire_values = Counter()
    for stream in streams.values():
        frames, _leftover, _errors = dissect_iec104(bytes(stream))
        for frame in frames:
            if frame[0] == "I" and frame[3] == 13:
                for ioa, value in frame[6]:
                    wire_values[(ioa, value)] += 1
    archive_values = Counter(
        (int(r["ioa"]), float(r["value"]))
        for r in rows_of(os.path.join(out.outdir, "archive.csv"))
    )
    assert archive_values == wire_values
    elapsed = time.perf_counter() - started
    print(
        f"\nACCEPTANCE 8 PASS pcap external validity ({len(packets)} frames, "
        f"0 dissector warnings, {total_frames} iec104 APDUs reassembled from "
        f"{len(streams)} streams, {elapsed:.2f}s)"
    )
