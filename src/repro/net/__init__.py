"""Simulated network: messages, latency models, fabric and nodes."""

from .latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    PerLinkLatency,
    UniformLatency,
)
from .message import Message
from .network import Network, NetworkStats
from .node import DueQueue, Node

__all__ = [
    "DueQueue",
    "Message",
    "Network",
    "NetworkStats",
    "Node",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "PerLinkLatency",
]
