"""Measurement substrate: NetFlow-style flow export and planning-input
estimation from it."""

from .estimation import EstimationModel, estimate_units
from .flows import FlowExporter, TrafficReport

__all__ = [
    "EstimationModel",
    "FlowExporter",
    "TrafficReport",
    "estimate_units",
]
