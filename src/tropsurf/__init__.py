"""Fan tropical planes, intersection theory of 1-cycles, the invariant
calculus of compact tropical surfaces, and cellular cosheaf homology.

Submodules load on first use: ``import tropsurf`` imports only the error
types, and ``tropsurf.bergman`` (or any other layer) imports that layer
when it is first read."""

import importlib

from .errors import (
    ComplexError,
    CycleError,
    FanError,
    MatroidError,
    SurfaceError,
    TropsurfError,
)

__all__ = [
    "TropsurfError",
    "MatroidError",
    "FanError",
    "CycleError",
    "SurfaceError",
    "ComplexError",
]

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "matroid",
    "bergman",
    "intlinalg",
    "fan_cycles",
    "fan_intersect",
    "cosheaf_homology",
    "surface_calculus",
    "cli",
})


def __getattr__(name):
    # PEP 562: called only for names not yet bound on the package
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
