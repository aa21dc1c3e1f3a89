"""Closed-form calibration models: Z-crosstalk, detuned Rabi spectra,
and ZPA-to-frequency polynomial fits.

Commanded and effective Z-pulse amplitudes are related linearly by a
correction matrix with unit diagonal and off-diagonal entries given by
the negated crosstalk coefficients; compensation solves the linear
system directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CrosstalkMatrix",
    "assemble_mcor",
    "commanded_amplitudes",
    "detuned_rabi",
    "fit_zpa_map",
]


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Measured Z-line crosstalk coefficients alpha_ij (zero diagonal)."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[0] != coeffs.shape[1]:
            raise ValueError("coeffs must be a square matrix")
        if np.any(np.diag(coeffs) != 0.0):
            raise ValueError("crosstalk coefficients must have zero diagonal")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def mcor(self) -> np.ndarray:
        return assemble_mcor(self.coeffs)

    @property
    def condition_number(self) -> float:
        return float(np.linalg.cond(self.mcor))


def assemble_mcor(coeffs) -> np.ndarray:
    """Correction matrix: ones on the diagonal, -alpha_ij off it."""
    coeffs = np.asarray(coeffs, dtype=float)
    if np.any(np.diag(coeffs) != 0.0):
        raise ValueError("coeffs must have zero diagonal")
    return np.eye(coeffs.shape[0]) - coeffs


def commanded_amplitudes(m: np.ndarray, z_eff: np.ndarray) -> np.ndarray:
    """Solve M z_cmd = z_eff for the amplitudes to command.

    Direct linear solve (no explicit inverse); the residual is checked
    to 1e-12 relative to the target.
    """
    m = np.asarray(m, dtype=float)
    z_eff = np.asarray(z_eff, dtype=float)
    try:
        z_cmd = np.linalg.solve(m, z_eff)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"singular correction matrix (condition ~ {np.linalg.cond(m):.2e})"
        ) from exc
    scale = max(1.0, float(np.linalg.norm(z_eff)))
    if np.linalg.norm(m @ z_cmd - z_eff) > 1e-12 * scale:
        raise ValueError(
            f"solve residual too large (condition ~ {np.linalg.cond(m):.2e})"
        )
    return z_cmd


def detuned_rabi(omega: float, delta: float, t: float) -> float:
    """P_e = (Omega^2/Omega_R^2) sin^2(Omega_R t / 2), Omega_R = sqrt(Omega^2 + delta^2)."""
    omega_r = math.hypot(omega, delta)
    if omega_r == 0.0:
        return 0.0
    return (omega / omega_r) ** 2 * math.sin(omega_r * t / 2.0) ** 2


def fit_zpa_map(samples, degree: int):
    """Least-squares polynomial freq(zpa) of the given degree.

    Returns (coefficients ascending in power, residual vector).  The
    design columns are scaled to unit norm before solving to keep the
    conditioning benign.
    """
    zpa = np.asarray([s[0] for s in samples], dtype=float)
    freq = np.asarray([s[1] for s in samples], dtype=float)
    if np.unique(zpa).size < degree + 1:
        raise ValueError(
            f"need at least {degree + 1} distinct samples for degree {degree}"
        )
    a = np.vander(zpa, degree + 1, increasing=True)
    scale = np.linalg.norm(a, axis=0)
    scale[scale == 0] = 1.0
    coeffs_scaled, *_ = np.linalg.lstsq(a / scale, freq, rcond=None)
    coeffs = coeffs_scaled / scale
    residual = freq - a @ coeffs
    return coeffs, residual
