"""Golden manifests: pinned scenarios must keep writing the same artifact bytes.

Each `tests/data/golden/<name>.sha256` lists the sha256 of every hashed
artifact of that scenario, in `sha256sum` format. The two shipped demos send
few APDUs; `tests/data/scada_burst` pins the heavy IEC 104 path (report
buffer overflow, STARTDT buffer flush, the S-frame after every w = 8
I-frames, and a general interrogation). The k = 12 window never fills in a
run, since delivery is inline and the S-frame arrives first; the session
tests in `tests/test_iec104.py` cover it. `tests/data/grid_fields` reads every monitored field
of every element kind, on a grid with a tapped trafo, an open line and a
closed line cut off behind it. `tests/data/tree_feeder` runs a 127-bus tree
feeder whose power flow eliminates leaf layers before the dense solve. A
change that moves any byte of a PCAP or CSV fails here; regenerate the file
only together with a CHANGES.md line that explains the change.

`run_report.txt` is not hashed, since its `wall_seconds` line differs on
every run. Each `tests/data/golden/<name>.run_report.txt` pins every other
line of it: the simulator ids, their order, their step counts and the KPIs.
"""

import hashlib
import os

import pytest

from conftest import HASHED_OUTPUTS, PINNED
from gridcosim.scenario import load_scenario, run_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "data", "golden")


def _golden(name: str) -> dict[str, str]:
    with open(os.path.join(GOLDEN_DIR, f"{name}.sha256"), encoding="utf-8") as fh:
        pairs = (line.split() for line in fh if line.strip())
        return {artifact: digest for digest, artifact in pairs}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_artifacts_match_golden_manifest(tmp_path, name):
    golden = _golden(name)
    assert sorted(golden) == sorted(HASHED_OUTPUTS)
    scenario = load_scenario(PINNED[name])
    outputs = run_scenario(scenario, outdir=str(tmp_path))
    actual = {artifact: _sha256(os.path.join(outputs.outdir, artifact))
              for artifact in HASHED_OUTPUTS}
    assert actual == golden


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_report_matches_pin_but_wall_seconds(tmp_path, name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.run_report.txt"), encoding="utf-8") as fh:
        pinned = fh.read().splitlines()
    outputs = run_scenario(load_scenario(PINNED[name]), outdir=str(tmp_path))
    with open(os.path.join(outputs.outdir, "run_report.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    timed = [line for line in lines if line.startswith("wall_seconds: ")]
    assert len(timed) == 1
    assert [line for line in lines if line not in timed] == pinned
