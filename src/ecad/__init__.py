"""Evolutionary co-design search for MLP architectures and systolic-array hardware."""

from .config import EcadConfig, HwConfig, parse_config
from .genome import NetworkDescription, NetworkGenome, mutate, spawn, to_description
from .hwmodel import SystolicConfig, block_geometry, estimate, potential_gops
from .sysarray import simulate_layer, run_network

__all__ = [
    "EcadConfig",
    "HwConfig",
    "NetworkDescription",
    "NetworkGenome",
    "SystolicConfig",
    "block_geometry",
    "estimate",
    "mutate",
    "parse_config",
    "potential_gops",
    "run_network",
    "simulate_layer",
    "spawn",
    "to_description",
]
