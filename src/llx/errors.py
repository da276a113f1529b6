"""Exception types shared across the package.

Contains:
- ConfigError: invalid or missing configuration (CLI exit 2)
- ValidationError: a computed object failed its own consistency checks,
  e.g. an unresolved transmission layer (CLI exit 2)
- SolverAbort: a time marcher gave up (CLI exit 3)
- NonContraction: the profile iteration stopped contracting; carries the
  largest time up to which it did converge, and the profiles up to it
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration or input data."""


class ValidationError(ValueError):
    """A computed result failed a structural consistency check."""


class SolverAbort(RuntimeError):
    """A time integration gave up (divergence, repeated step rejection)."""


class NonContraction(SolverAbort):
    """Profile iteration failed to contract.

    Attributes:
        t_converged: largest time up to which iterates did converge,
            0.0 if the very first sweep already failed.
        ratios: the trailing sequence of contraction ratios observed.
        profiles: the ProfilePair, valid up to t_converged (from
            picard_profiles).
    """

    def __init__(self, message: str, t_converged: float = 0.0,
                 ratios=None):
        super().__init__(message)
        self.t_converged = t_converged
        self.ratios = list(ratios) if ratios is not None else []
        self.profiles = None
