"""Numerical laboratory for a ferromagnetic slab in the small-exchange limit.

The package builds, layer by layer, the matched asymptotic ansatz for the
magnetization of a 1-D slab: the discontinuous limit flow, the internal
transmission profile at the mid-plane, the boundary profile at the walls,
and the assembled two-term expansion; and it integrates the full
exchange model so the two can be compared at a sequence of exchange
lengths.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import ConfigError, NonContraction, SolverAbort, ValidationError

__all__ = [
    "__version__",
    "ConfigError",
    "NonContraction",
    "SolverAbort",
    "ValidationError",
]
