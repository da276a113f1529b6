"""Stray (demagnetizing) field operators.

Contains:
- E1: the slab normal, the direction across the slab
- stray_field_slab: the exact pointwise field for magnetizations varying
  only across the slab, H(u) = (-u1, 0, 0)
- layer_correction: the profile-scale correction -(U.e1) e1 carried by
  a layer term
- TorusGrid / stray_field_torus: spectral evaluation on a 3-D torus,
  multiplier -(m_hat . xi_unit) xi_unit, zero mean
- div_torus / curl_torus: spectral first-order operators
- reconstruct_from_div_curl: inverse multiplier recovering a mean-zero
  field from its divergence and curl
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

E1 = np.array([1.0, 0.0, 0.0])


def stray_field_slab(u: np.ndarray) -> np.ndarray:
    """Stray field of a slab magnetization u(x): (-u1, 0, 0) pointwise.

    u has shape (..., 3); the first component is the one across the slab.
    """
    u = np.asarray(u, dtype=float)
    h = np.zeros_like(u)
    h[..., 0] = -u[..., 0]
    return h


def layer_correction(U: np.ndarray) -> np.ndarray:
    """Fast-scale stray-field correction of a layer term across the
    slab: -(U.e1) e1."""
    U = np.asarray(U, dtype=float)
    return -(U @ E1)[..., None] * E1


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on a 3-D torus of side lengths L = (L1, L2, L3)."""

    shape: tuple
    lengths: tuple = (2.0 * np.pi, 2.0 * np.pi, 2.0 * np.pi)

    def __post_init__(self):
        if len(self.shape) != 3 or any(n < 2 for n in self.shape):
            raise ValueError(f"need three axes of >= 2 points, got {self.shape}")

    def axes(self):
        return tuple(
            np.arange(n) * (L / n) for n, L in zip(self.shape, self.lengths))

    def wavenumbers(self):
        """Angular wavenumber arrays xi_j, each shaped (n1, n2, n3)."""
        freqs = [
            2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
            for n, L in zip(self.shape, self.lengths)
        ]
        return np.meshgrid(*freqs, indexing="ij")


def _fftn3(field: np.ndarray) -> np.ndarray:
    return np.fft.fftn(field, axes=(0, 1, 2))


def _ifftn3(field_hat: np.ndarray) -> np.ndarray:
    return np.real(np.fft.ifftn(field_hat, axes=(0, 1, 2)))


def stray_field_torus(m: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Stray field of a periodic magnetization, spectral multiplier form.

    For each nonzero mode xi the multiplier projects minus the
    magnetization onto the direction of xi; the zero mode is set to 0,
    so the result always has zero mean.

    Args:
        m: magnetization, shape grid.shape + (3,).
        grid: the torus grid m lives on.

    Returns:
        H, same shape as m, with div(H + m) = 0 and curl H = 0 in the
        discrete spectral sense.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != grid.shape + (3,):
        raise ValueError(
            f"magnetization shape {m.shape} does not match grid "
            f"{grid.shape + (3,)}")
    xi = np.stack(grid.wavenumbers(), axis=-1)
    xi_sq = np.sum(xi * xi, axis=-1)
    m_hat = _fftn3(m)
    dot = np.sum(m_hat * xi, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = np.where(xi_sq > 0.0, -dot / xi_sq, 0.0)
    h_hat = coeff[..., None] * xi
    return _ifftn3(h_hat)


def div_torus(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Spectral divergence of a vector field on the torus."""
    xi = grid.wavenumbers()
    u_hat = _fftn3(np.asarray(u, dtype=float))
    d_hat = 1j * sum(xi[j] * u_hat[..., j] for j in range(3))
    return _ifftn3(d_hat)


def curl_torus(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Spectral curl of a vector field on the torus."""
    xi = grid.wavenumbers()
    u_hat = _fftn3(np.asarray(u, dtype=float))
    c_hat = np.empty_like(u_hat)
    c_hat[..., 0] = 1j * (xi[1] * u_hat[..., 2] - xi[2] * u_hat[..., 1])
    c_hat[..., 1] = 1j * (xi[2] * u_hat[..., 0] - xi[0] * u_hat[..., 2])
    c_hat[..., 2] = 1j * (xi[0] * u_hat[..., 1] - xi[1] * u_hat[..., 0])
    return _ifftn3(c_hat)


def reconstruct_from_div_curl(a: np.ndarray, b: np.ndarray,
                              grid: TorusGrid) -> np.ndarray:
    """Recover the mean-zero field with divergence a and curl b.

    Inverse multiplier: u_hat = -i |xi|^-2 (a_hat xi - xi x b_hat) for
    xi != 0, zero at the zero mode. Requires a and b to have zero mean
    and b to be divergence free, which any (div u, curl u) pair supplies.
    """
    a_hat = _fftn3(np.asarray(a, dtype=float))
    b_hat = _fftn3(np.asarray(b, dtype=float))
    xi = np.stack(grid.wavenumbers(), axis=-1)
    xi_sq = np.sum(xi * xi, axis=-1)
    cross = np.empty_like(b_hat)
    cross[..., 0] = xi[..., 1] * b_hat[..., 2] - xi[..., 2] * b_hat[..., 1]
    cross[..., 1] = xi[..., 2] * b_hat[..., 0] - xi[..., 0] * b_hat[..., 2]
    cross[..., 2] = xi[..., 0] * b_hat[..., 1] - xi[..., 1] * b_hat[..., 0]
    numer = a_hat[..., None] * xi - cross
    with np.errstate(divide="ignore", invalid="ignore"):
        u_hat = np.where(xi_sq[..., None] > 0.0,
                         -1j * numer / xi_sq[..., None], 0.0)
    return _ifftn3(u_hat)
