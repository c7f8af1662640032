import os

import pytest

from gridcosim.scenario import ARTIFACTS

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

DATA_DIR = os.path.join(HERE, "data")
SCENARIOS_DIR = os.path.join(REPO, "scenarios")

ATTACK_DEMO = os.path.join(SCENARIOS_DIR, "attack_demo", "scenario.txt")
FLEX_DEMO = os.path.join(SCENARIOS_DIR, "flex_demo", "scenario.txt")
SCADA_BURST = os.path.join(DATA_DIR, "scada_burst", "scenario.txt")
TREE_FEEDER = os.path.join(DATA_DIR, "tree_feeder", "scenario.txt")
# the scenarios whose artifacts tests/data/golden pins
PINNED = {
    "attack_demo": ATTACK_DEMO,
    "flex_demo": FLEX_DEMO,
    "scada_burst": SCADA_BURST,
    "grid_fields": os.path.join(DATA_DIR, "grid_fields", "scenario.txt"),
    "tree_feeder": TREE_FEEDER,
}
FEEDER7 = os.path.join(DATA_DIR, "feeder7.grid")
FEEDER7_PROFILES = os.path.join(DATA_DIR, "feeder7_profiles.csv")

# the files a run writes whose sha256 its manifest lists
HASHED_OUTPUTS = [name for name, artifact in ARTIFACTS.items() if artifact.hashed]


@pytest.fixture(scope="session")
def feeder7_path():
    return FEEDER7


@pytest.fixture(scope="session")
def feeder7_profiles_path():
    return FEEDER7_PROFILES


@pytest.fixture(scope="session")
def attack_demo_path():
    return ATTACK_DEMO


@pytest.fixture(scope="session")
def flex_demo_path():
    return FLEX_DEMO


@pytest.fixture(scope="session")
def scada_burst_path():
    return SCADA_BURST
