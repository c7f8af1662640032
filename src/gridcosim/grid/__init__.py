"""Quasi-static AC grid simulation: model, power flow, profiles."""
