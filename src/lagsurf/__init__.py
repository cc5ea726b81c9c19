"""Front calculus for Legendrian links, surface bookkeeping, and embeddability tables.

The names below come from :mod:`lagsurf.fronts`, which is imported on the
first access to one of them, so importing a submodule does not load it.
"""

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


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from lagsurf import fronts

    value = getattr(fronts, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
