"""Workload substrate: packets, sessions, profiles, matrices, generator."""

from .dynamics import (
    DiurnalBurstModel,
    headroom_for_percentile,
    percentile,
)
from .generator import (
    GeneratorConfig,
    HOST_BITS,
    TrafficGenerator,
    home_node_index,
    host_id,
)
from .matrix import TrafficMatrix
from .packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    FiveTuple,
    ICMP,
    Packet,
    TCP,
    UDP,
)
from .profiles import (
    SessionTemplate,
    TEMPLATES,
    TrafficProfile,
    attack_heavy_profile,
    mixed_profile,
    web_heavy_profile,
)
from .batch import SessionBatch
from .session import Session, merge_packet_streams

__all__ = [
    "DiurnalBurstModel",
    "FLAG_ACK",
    "FLAG_FIN",
    "FLAG_RST",
    "FLAG_SYN",
    "FiveTuple",
    "GeneratorConfig",
    "HOST_BITS",
    "ICMP",
    "Packet",
    "Session",
    "SessionBatch",
    "SessionTemplate",
    "TCP",
    "TEMPLATES",
    "TrafficGenerator",
    "TrafficMatrix",
    "TrafficProfile",
    "UDP",
    "headroom_for_percentile",
    "percentile",
    "attack_heavy_profile",
    "home_node_index",
    "host_id",
    "merge_packet_streams",
    "mixed_profile",
    "web_heavy_profile",
]
