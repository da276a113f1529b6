"""Initial magnetization descriptors.

Contains:
- MagnetizationField: evaluates initial data on an array of x nodes,
  one constant unit vector per side or a named analytic field
- constant_per_side / named_field constructors
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

logger = logging.getLogger(__name__)

NORMALIZE_WARN_TOL = 1e-8


def _normalize_vec(v, label: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{label} must be a 3-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError(f"{label} must be nonzero")
    if abs(norm - 1.0) > NORMALIZE_WARN_TOL:
        logger.warning("%s has norm %.12g, renormalizing", label, norm)
    return v / norm


def _swirl(x: np.ndarray) -> np.ndarray:
    """Smooth unit field winding about e2; its x-derivative at both
    walls, (0, 0, -0.3 pi / sqrt(0.9)) = (0, 0, -0.993), is not zero,
    which is what gives the wall layer work on this field."""
    raw = np.stack([
        0.3 * np.cos(np.pi * x),
        0.9 * np.ones_like(x),
        0.3 * np.sin(np.pi * x),
    ], axis=-1)
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


NAMED_FIELDS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "swirl": _swirl,
}


@dataclass(frozen=True)
class MagnetizationField:
    """Initial data on the slab, evaluated per side of the interface.

    Either a pair of constant unit vectors (value_minus on x < 0,
    value_plus on x > 0, interface node x = 0 takes the side it is
    evaluated on) or a single named analytic field applied everywhere.
    """

    value_minus: Optional[np.ndarray] = None
    value_plus: Optional[np.ndarray] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.name is None:
            if self.value_minus is None or self.value_plus is None:
                raise ValueError(
                    "need both per-side vectors or a named field")
        elif self.name not in NAMED_FIELDS:
            raise ValueError(
                f"unknown field {self.name!r}; "
                f"known: {sorted(NAMED_FIELDS)}")

    def __call__(self, x, side: str = "plus") -> np.ndarray:
        """Evaluate on nodes x; `side` decides the value at x = 0."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.name is not None:
            return NAMED_FIELDS[self.name](x)
        out = np.empty((x.size, 3))
        if side == "plus":
            mask = x >= 0.0
        else:
            mask = x > 0.0
        out[mask] = self.value_plus
        out[~mask] = self.value_minus
        return out

    def branch(self, x, which: str) -> np.ndarray:
        """One side's data branch continued to every node.

        Constants broadcast their side's vector everywhere; a named
        (continuous) field is its own continuation, so both branches
        are bitwise identical there.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.name is not None:
            return NAMED_FIELDS[self.name](x)
        if which == "plus":
            return np.tile(self.value_plus, (x.size, 1))
        if which == "minus":
            return np.tile(self.value_minus, (x.size, 1))
        raise ValueError(f"branch must be 'minus' or 'plus', got {which!r}")


def constant_per_side(minus, plus) -> MagnetizationField:
    """Per-side constants, normalized on ingest (warn above 1e-8 drift)."""
    return MagnetizationField(
        value_minus=_normalize_vec(minus, "minus-side value"),
        value_plus=_normalize_vec(plus, "plus-side value"),
    )


def named_field(name: str) -> MagnetizationField:
    """Look up an analytic field by name ("swirl")."""
    return MagnetizationField(name=name)
