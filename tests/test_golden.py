"""Golden manifests: pinned scenarios must keep writing the same artifact bytes.

Each `tests/data/golden/<name>.sha256` lists the sha256 of every hashed
artifact of that scenario, in `sha256sum` format. The two shipped demos send
few APDUs; `tests/data/scada_burst` pins the heavy IEC 104 path (report
buffer overflow, STARTDT buffer flush, k/w windowing with S-frames, and a
general interrogation). `tests/data/grid_fields` reads every monitored field
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

from conftest import HASHED_OUTPUTS
from gridcosim.scenario import load_scenario, run_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "data", "golden")
SCENARIOS_DIR = os.path.join(os.path.dirname(HERE), "scenarios")
PINNED = {
    "attack_demo": os.path.join(SCENARIOS_DIR, "attack_demo", "scenario.txt"),
    "flex_demo": os.path.join(SCENARIOS_DIR, "flex_demo", "scenario.txt"),
    "scada_burst": os.path.join(HERE, "data", "scada_burst", "scenario.txt"),
    "grid_fields": os.path.join(HERE, "data", "grid_fields", "scenario.txt"),
    "tree_feeder": os.path.join(HERE, "data", "tree_feeder", "scenario.txt"),
}


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
