"""Which-path information measures and branch-state reconstruction.

Distinguishability of the two field branches is the trace distance
between the reservoir states they condition: the product state
rho = (x)_k rho_k of the |alpha> branch and the all-ground state
|G><G| = |g...g><g...g| of the vacuum branch.  Delta = rho - |G><G| is
a rank-one downdate of a positive matrix, so it has exactly one
negative eigenvalue mu, and since tr Delta = 0, D = -mu.  With p_b and
u_b the 2^N product eigenvalues and eigenvectors of rho and
g_b = |<u_b|G>|^2, mu is the root below min(p) of the secular equation
sum_b g_b / (p_b - mu) = 1 (Golub, SIAM Rev. 15, 318, 1973).  It costs
O(2^N) per bisection step and forms no 2^N x 2^N matrix; for pure
branches it reduces to D = sqrt(1 - prod_k <g|rho_k|g>).  The 2^N
vectors cap N at _MAX_BRANCHES = 20, where the call takes about 36 MiB.

Per-qubit branch states are recovered from tomography via
2 rho_k - |g><g| followed by a positive-semidefinite projection (clip
negative eigenvalues, then renormalize the trace).
"""

from __future__ import annotations

import functools

import numpy as np

from .hilbert import DensityMatrix

__all__ = [
    "trace_distance",
    "von_neumann_entropy",
    "branch_from_tomo",
    "psd_project",
    "reservoir_distinguishability",
]

_GG = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_MAX_BRANCHES = 20


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) sum_i |lambda_i| of the Hermitian difference a - b."""
    if a.layout != b.layout:
        raise ValueError("layout mismatch in trace_distance")
    delta = a.mat - b.mat
    if np.max(np.abs(delta - delta.conj().T)) > 1e-9:
        raise ValueError("inputs are not Hermitian")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(delta))))


def _entropy_bits(mats: np.ndarray) -> np.ndarray:
    """-sum lambda log2 lambda in bits of each matrix of a (..., d, d) stack.

    0 log 0 = 0; an eigenvalue below -1e-8 is an error, and smaller
    negative ones count as 0.  Never returns -0.0.
    """
    lam = np.linalg.eigvalsh(mats)
    if lam.size and lam.min() < -1e-8:
        raise ValueError(f"state has a negative eigenvalue {lam.min():.3e}")
    lam = np.clip(lam, 0.0, None)
    terms = lam * np.log2(np.where(lam > 0, lam, 1.0))
    return np.maximum(0.0, -np.sum(terms, axis=-1)) + 0.0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda log2 lambda in bits, with 0 log 0 = 0."""
    return float(_entropy_bits(rho.mat))


def psd_project(raw: DensityMatrix) -> DensityMatrix:
    """Clip negative eigenvalues and renormalize the trace.

    Idempotent, and the identity on states that are already physical.
    """
    if np.max(np.abs(raw.mat - raw.mat.conj().T)) > 1e-9:
        raise ValueError("psd_project requires a Hermitian input")
    w, v = np.linalg.eigh(raw.mat)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise ValueError("all eigenvalues nonpositive; cannot project")
    w /= total
    return DensityMatrix(raw.layout, (v * w) @ v.conj().T)


def branch_from_tomo(rho_k: DensityMatrix) -> DensityMatrix:
    """Recover the |alpha>-branch qubit state from its tomographic mixture.

    The measured state is an even mixture of |g> (vacuum branch) and
    the branch state, so raw = 2 rho_k - |g><g|; the raw matrix may be
    slightly unphysical and is PSD-projected.
    """
    if rho_k.layout.dims != (2,):
        raise ValueError("branch_from_tomo expects a single-qubit state")
    raw = DensityMatrix(rho_k.layout, 2.0 * rho_k.mat - _GG)
    return psd_project(raw)


def reservoir_distinguishability(branches: list[DensityMatrix]) -> float:
    """Trace distance between (x)_k branch states and the all-ground state.

    Solves the secular equation of the module docstring by bisection on
    the bracket [-1, min(p, 0)], which holds the root for any physical
    product state.  Each branch must be a valid single-qubit density
    matrix; a branch that is not raises ValueError naming its qubit, and
    more than _MAX_BRANCHES branches raise ValueError.
    Returns exactly 0 for all-ground branches and exactly 1 when some
    branch is orthogonal to |g>.
    """
    if not branches:
        raise ValueError("need at least one branch state")
    if len(branches) > _MAX_BRANCHES:
        raise ValueError(f"{len(branches)} branches exceed the limit of {_MAX_BRANCHES}")
    for k, rk in enumerate(branches):
        if rk.layout.dims != (2,):
            raise ValueError(f"qubit {k}: each branch must be a single-qubit state")
        try:
            rk.validate()
        except ValueError as exc:
            raise ValueError(f"qubit {k}: {exc}") from exc
    w, v = np.linalg.eigh(np.stack([rk.mat for rk in branches]))
    p = functools.reduce(np.multiply.outer, w).ravel()
    g = functools.reduce(np.multiply.outer, np.abs(v[:, 0]) ** 2).ravel()  # |<u|g>|^2
    # sum g rather than 1 on the right: both sides then round alike, so
    # an orthogonal branch (g lives where p = 0) gives exactly 0 at mu = -1
    total = g.sum()

    def excess(mu: float) -> float:
        """sum_b g_b / (p_b - mu) - sum_b g_b; increasing for mu < min(p)."""
        return float(np.sum(g / (p - mu)) - total)

    lo, hi = -1.0, min(float(p.min()), 0.0)
    if excess(lo) >= 0.0:
        return 1.0
    # the root sits on hi only if no overlap makes the sum singular there
    top = p == hi
    if not g[top].any() and np.sum(g[~top] / (p[~top] - hi)) <= total:
        return 0.0 - hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return 0.0 - hi
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
