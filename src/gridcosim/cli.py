"""Command line interface: run scenarios, validate them, dump captures.

Exit codes: 0 ok, 1 validation problem, 2 runtime fault.
"""

from __future__ import annotations

import argparse
import sys

from . import iec104
from .configfile import ConfigError
from .devices import IEC104_PORT
from .kernel import KernelError
from .netsim import NetError
from .pcap import PcapError, flags_text, read_pcap
from .scenario import load_scenario, run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

_VALIDATION_ERRORS = (ConfigError, NetError, OSError)


def _cmd_run(args) -> int:
    if args.until is not None and args.until <= 0:
        print(f"error: --until must be positive, got {args.until}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        scenario = load_scenario(args.scenario)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        outputs = run_scenario(scenario, outdir=args.out, until=args.until)
    except (KernelError, NetError, RuntimeError) as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    sys.stdout.write(outputs.report_text)
    print(f"outputs written to {outputs.outdir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except _VALIDATION_ERRORS as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(
        f"ok: scenario '{scenario.name}' "
        f"({len(scenario.rtus)} rtu, {len(scenario.veds)} ved, "
        f"attack={'yes' if scenario.attack_plan else 'no'})"
    )
    return EXIT_OK


def _describe_asdu(asdu: iec104.Asdu) -> str:
    objs = " ".join(
        f"ioa={o.ioa} value={o.value!r}" for o in asdu.objects
    )
    return (
        f"{iec104.TYPE_NAMES[asdu.type_id]} cot={asdu.cot} "
        f"ca={asdu.common_address} {objs}"
    )


def _describe_apdu(apdu: iec104.Apdu) -> str:
    if apdu.kind == "U":
        return f"U {iec104.U_NAMES[apdu.u_function]}"
    if apdu.kind == "S":
        return f"S n(r)={apdu.recv_seq}"
    return f"I n(s)={apdu.send_seq} n(r)={apdu.recv_seq} {_describe_asdu(apdu.asdu)}"


def _cmd_pcap_dump(args) -> int:
    try:
        _dump_capture(args.file)
    except (OSError, PcapError, iec104.Iec104Error) as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _dump_capture(path) -> None:
    records = read_pcap(path)
    streams: dict[tuple, bytes] = {}
    for i, record in enumerate(records):
        line = (
            f"{i:5d} t={record.t_us / 1e6:12.6f}s "
            f"{record.src_ip}:{record.src_port} -> {record.dst_ip}:{record.dst_port} "
            f"[{flags_text(record.tcp_flags)}] len={len(record.payload)}"
        )
        print(line)
        if not record.payload:
            continue
        key = (record.src_ip, record.src_port, record.dst_ip, record.dst_port)
        stream = streams.get(key, b"")
        if IEC104_PORT in (record.src_port, record.dst_port) and (
            stream or record.payload[0] == iec104.START_BYTE
        ):
            # one stream per direction: an APDU may span segments
            stream += record.payload
            apdus, used = iec104.decode_stream(stream)
            streams[key] = stream[used:]
            for apdu in apdus:
                print(f"      iec104: {_describe_apdu(apdu)}")
        else:
            preview = record.payload[:60].decode("ascii", errors="replace")
            print(f"      data: {preview!r}")
    print(f"{len(records)} records")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridcosim",
        description="deterministic grid / SCADA-network / attacker co-simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario to its horizon")
    p_run.add_argument("scenario", help="scenario file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--until", type=int, default=None, help="stop after this many seconds")
    p_run.set_defaults(func=_cmd_run)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario", help="scenario file")
    p_validate.set_defaults(func=_cmd_validate)

    p_dump = sub.add_parser("pcap-dump", help="human-readable capture decode")
    p_dump.add_argument("file", help="pcap file")
    p_dump.set_defaults(func=_cmd_pcap_dump)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
