"""Slab geometry: domain meshes, level sets, cutoffs, conormal weights.

Contains:
- quintic_smoothstep: the C2 polynomial ramp used by every cutoff here
- SlabDomain / build_domain: the uniform two-sided slab (-1,1) with the
  interface at x = 0 stored as a duplicated node
- LevelSets: distance to the boundary, the boundary cutoff theta, and
  the interface blending weight chi
- conormal_weight: weight of the vector field x(1-x^2) d/dx tangent to
  both the interface and the boundary
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def quintic_smoothstep(t):
    """C2 ramp: 0 for t <= 0, 1 for t >= 1, 6t^5 - 15t^4 + 10t^3 between.

    First and second derivatives vanish at both ends, so products with it
    keep two continuous derivatives.
    """
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


@dataclass(frozen=True)
class SlabDomain:
    """Two-sided slab (-1, 1) with interface x = 0 duplicated.

    x_minus runs from -1 to 0 inclusive, x_plus from 0 to 1 inclusive;
    the shared endpoint 0 appears in both arrays (two-sided storage, the
    limit solution may jump there).
    """

    x_minus: np.ndarray
    x_plus: np.ndarray
    cells_per_side: int

    def merged_nodes(self) -> np.ndarray:
        """Single-valued node set: minus-side nodes then plus side, one 0."""
        return np.concatenate([self.x_minus[:-1], self.x_plus])


def build_domain(cells_per_side: int) -> SlabDomain:
    """Build the uniform slab mesh, one array of nodes per side.

    cells_per_side cells (at least 8) cover each of (-1, 0) and (0, 1);
    the nodes increase strictly and include -1, 0 and 1.
    """
    if cells_per_side < 8:
        raise ValueError(
            f"cells_per_side must be at least 8, got {cells_per_side}")
    widths_plus = np.full(cells_per_side, 1.0 / cells_per_side)
    x_plus = np.concatenate([[0.0], np.cumsum(widths_plus)])
    x_plus[-1] = 1.0
    x_minus = -x_plus[::-1].copy()
    return SlabDomain(x_minus=x_minus, x_plus=x_plus,
                      cells_per_side=cells_per_side)


@dataclass(frozen=True)
class LevelSets:
    """Level-set functions and cutoffs for the slab.

    phi(x) = 1 - |x| is the distance to the boundary. theta is 1 on the
    inner boundary band (phi <= theta_inner), 0 outside the boundary
    neighborhood (phi >= v_gamma_width), C2 in between. chi_sigma is
    the interface blending weight: 1 at x = 0, 0 outside
    |x| < v_sigma_halfwidth.
    """

    v_sigma_halfwidth: float = 0.35
    v_gamma_width: float = 0.25
    theta_inner: float = 0.125

    def __post_init__(self):
        if not 0.0 < self.theta_inner < self.v_gamma_width:
            raise ValueError(
                f"need 0 < theta_inner < v_gamma_width, got "
                f"{self.theta_inner} vs {self.v_gamma_width}")
        if self.v_sigma_halfwidth + self.v_gamma_width >= 1.0:
            raise ValueError(
                "interface and boundary neighborhoods overlap: "
                f"{self.v_sigma_halfwidth} + {self.v_gamma_width} >= 1")

    def phi(self, x):
        return 1.0 - np.abs(x)

    def theta(self, x):
        """Boundary cutoff: 1 where phi <= theta_inner, 0 where phi >= v_gamma_width."""
        d = self.phi(x)
        t = (d - self.theta_inner) / (self.v_gamma_width - self.theta_inner)
        return 1.0 - quintic_smoothstep(t)

    def chi_sigma(self, x):
        """Interface blending weight: 1 at x = 0, 0 for |x| >= v_sigma_halfwidth."""
        return 1.0 - quintic_smoothstep(np.abs(x) / self.v_sigma_halfwidth)

    def in_v_sigma(self, x):
        return np.abs(x) < self.v_sigma_halfwidth


def conormal_weight(x):
    """Weight of the generating conormal field Z = x(1-x^2) d/dx.

    Vanishes to first order at the interface (x=0) and the boundary
    (x=+-1), so Z is tangent to both.
    """
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x * x)
