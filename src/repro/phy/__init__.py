"""Physical layer: broadcast medium, topologies and loss models."""

from .channel import Channel, Transmission
from .lossmodels import (
    LossModel,
    PerfectChannel,
    UniformLoss,
)
from .topology import (
    BODY_PRESET,
    BodyTopology,
    ExplicitLinks,
    FullConnectivity,
    Position,
    Topology,
)

__all__ = [
    "Channel",
    "Transmission",
    "LossModel",
    "PerfectChannel",
    "UniformLoss",
    "BODY_PRESET",
    "BodyTopology",
    "ExplicitLinks",
    "FullConnectivity",
    "Position",
    "Topology",
]
