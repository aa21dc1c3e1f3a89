"""Z-crosstalk compensation.

Commanded and effective Z-pulse amplitudes are related linearly by a
correction matrix with unit diagonal and off-diagonal entries given by
the negated crosstalk coefficients; compensation solves the linear
system directly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assemble_mcor", "commanded_amplitudes"]


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
