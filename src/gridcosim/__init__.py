"""gridcosim: deterministic co-simulation of a cyber-physical distribution grid.

Couples an AC power-flow simulator, an emulated IT/OT network speaking
IEC 60870-5-104, a multi-stage scripted attacker, and EMS-dispatched
behind-the-meter flexibility, producing reproducible normal/attack datasets
(PCAP plus measurement CSVs) and dispatch traces.
"""

__version__ = "0.1.0"
