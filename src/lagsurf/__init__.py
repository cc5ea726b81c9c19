"""Front calculus for Legendrian links, surface bookkeeping, and embeddability tables."""

from lagsurf.fronts import (
    CrossingInfo,
    CuspInfo,
    EventKind,
    FrontDiagram,
    FrontError,
    FrontEvent,
    MultiComponentInput,
    NegativeStrandCount,
    NonClosedFront,
    OddCrossingSum,
    PositionOutOfRange,
    front_connected_sum,
    word,
)

__version__ = "0.1.0"

__all__ = [
    "CrossingInfo",
    "CuspInfo",
    "EventKind",
    "FrontDiagram",
    "FrontError",
    "FrontEvent",
    "MultiComponentInput",
    "NegativeStrandCount",
    "NonClosedFront",
    "OddCrossingSum",
    "PositionOutOfRange",
    "front_connected_sum",
    "word",
]
