"""Measurement substrate: NetFlow-style flow export and planning-input
estimation from it."""

from .estimation import EstimationModel, estimate_units
from .flows import FlowExporter, FlowRecord, TrafficReport

__all__ = [
    "EstimationModel",
    "FlowExporter",
    "FlowRecord",
    "TrafficReport",
    "estimate_units",
]
