"""Photon-number readout emulation and Wigner reconstruction.

An ancilla qubit resonantly coupled to the field Rabi-oscillates at
2 xi sqrt(n) inside each Fock manifold, so from |g> its excited-state
signal

    P_e(tau) = 1/2 {1 - sum_n P_n cos(2 xi sqrt(n) tau)}

encodes the photon distribution P_n; a constrained least-squares fit
inverts it.  The Wigner function is the displaced parity,
W(alpha) = (2/pi) sum_n (-1)^n <n| D^dag(alpha) rho D(alpha) |n>,
summed in closed form over the Fock-basis elements of rho: the
displaced-parity matrix elements are associated Laguerre polynomials
(Cahill & Glauber, Phys. Rev. 177, 1857, 1969), evaluated over the
whole grid by their normalized three-term recurrence along each
diagonal of rho (as in QuTiP's iterative ``wigner``; Johansson, Nation
& Nori, CPC 184, 1234, 2013).  The recurrence depends on beta only
through the real x = 4|beta|^2, so it runs in real arithmetic, once per
distinct x of the grid (the +-Re and +-Im mirror points of a grid
share one); the phase e^(ik phi) of diagonal k, beta = |beta| e^(i phi),
is applied per grid point once per diagonal.  A map costs
O(d^2 #distinct x + d #grid) for a cutoff d.  See ``wigner_map``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityMatrix

__all__ = [
    "RabiTrace",
    "WignerMap",
    "synthesize_rabi",
    "fit_photon_numbers",
    "wigner_point",
    "wigner_map",
    "derotate",
]

# largest photon number fit_photon_numbers resolves
N_MAX_LIMIT = 20
# primal and dual feasibility of the fit's active-set iterate
_KKT_TOL = 1e-8


@dataclass(frozen=True)
class RabiTrace:
    """Ancilla Rabi signal P_e(tau) from |g>, with its drive."""

    taus: np.ndarray  # s
    pe: np.ndarray
    xi: float  # rad/s

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        pe = np.asarray(self.pe, dtype=float)
        if taus.shape != pe.shape or taus.ndim != 1:
            raise ValueError("taus and pe must be equal-length vectors")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "pe", pe)


@dataclass(frozen=True)
class WignerMap:
    """W sampled on a rectangular grid of Re(alpha) x Im(alpha)."""

    re_grid: np.ndarray
    im_grid: np.ndarray
    values: np.ndarray  # shape (len(re_grid), len(im_grid))

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.re_grid), len(self.im_grid)):
            raise ValueError("values shape does not match grids")
        if not np.all(np.isfinite(values)):
            raise ValueError("Wigner values are not all finite")
        if np.max(np.abs(values)) > 2.0 / math.pi + 1e-6:
            raise ValueError("Wigner values exceed the 2/pi bound")
        object.__setattr__(self, "values", values)


def synthesize_rabi(pn: np.ndarray, xi: float, taus: np.ndarray) -> RabiTrace:
    """Forward model of the photon-number Rabi signal."""
    pn = np.asarray(pn, dtype=float)
    if pn.min() < -1e-12 or abs(pn.sum() - 1.0) > 1e-9:
        raise ValueError("pn is not a probability distribution")
    taus = np.asarray(taus, dtype=float)
    cosines = np.cos(2.0 * xi * np.sqrt(np.arange(pn.size))[None, :] * taus[:, None])
    pe = 0.5 * (1.0 - cosines @ pn)
    return RabiTrace(taus, pe, xi)


def _design_matrix(trace: RabiTrace, n_max: int) -> np.ndarray:
    freqs = 2.0 * trace.xi * np.sqrt(np.arange(n_max + 1, dtype=float))
    return 0.5 * np.cos(freqs[None, :] * trace.taus[:, None])


def fit_photon_numbers(trace: RabiTrace, n_max: int) -> np.ndarray:
    """Invert a Rabi trace into P_0..P_{n_max}.

    Solves min ||A p - b||^2 subject to p >= 0, sum p = 1 by an
    active-set method: the equality-constrained normal equations are
    solved on the free index set, negative entries are clamped to the
    active set, and clamped entries re-enter when their KKT dual turns
    negative.  The final iterate satisfies the KKT conditions to
    _KKT_TOL.  Needs 0 <= n_max <= N_MAX_LIMIT and at least n_max + 2 samples.
    """
    if not 0 <= n_max <= N_MAX_LIMIT:
        raise ValueError(f"n_max must be between 0 and {N_MAX_LIMIT}, got {n_max}")
    if trace.taus.size < n_max + 2:
        raise ValueError("too few samples for the requested n_max")
    a = _design_matrix(trace, n_max)
    b = 0.5 - trace.pe
    # span check: at least 2 periods of the slowest nonzero tone
    slowest = 2.0 * abs(trace.xi)  # n = 1
    span = trace.taus.max() - trace.taus.min()
    cond = np.linalg.cond(a)
    if span * slowest < 2.0 * 2.0 * math.pi or cond > 1e8:
        warnings.warn(
            f"Rabi trace poorly conditions the fit (span {span:.2e} s, "
            f"condition number {cond:.2e})",
            UserWarning,
        )
    g = a.T @ a
    c = a.T @ b
    m = n_max + 1
    free = np.ones(m, dtype=bool)
    p = np.full(m, 1.0 / m)
    for _ in range(200 * m):
        # equality-constrained solve on the free set:
        # [G_ff 1; 1^T 0] [p_f; mu] = [c_f; 1]
        f = np.flatnonzero(free)
        kkt = np.zeros((f.size + 1, f.size + 1))
        kkt[: f.size, : f.size] = g[np.ix_(f, f)]
        kkt[: f.size, -1] = 1.0
        kkt[-1, : f.size] = 1.0
        rhs = np.concatenate([c[f], [1.0]])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        p = np.zeros(m)
        p[f] = sol[: f.size]
        mu = sol[-1]
        if p.min() < -_KKT_TOL:
            free[int(np.argmin(p))] = False
            continue
        p = np.clip(p, 0.0, None)
        # dual feasibility on the active set: grad_i + mu >= 0
        grad = g @ p - c
        duals = grad + mu
        active = np.flatnonzero(~free)
        if active.size and duals[active].min() < -_KKT_TOL:
            free[active[int(np.argmin(duals[active]))]] = True
            continue
        break
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    return p


def _wigner(rho: DensityMatrix, beta) -> np.ndarray:
    """W at every point of the complex array `beta`, by the real diagonal recurrence.

    With x = 4|beta|^2 and beta = |beta| e^(i phi), the displaced-parity
    element W_{m,m+k} is e^(ik phi) R_{m,k}(x), R real (see
    ``wigner_map``).  The recurrence runs on the distinct values of x
    only: for each diagonal k of rho it steps R_{m,k} -> R_{m+1,k} and
    sums Re rho_{m,m+k} R_{m,k} and Im rho_{m,m+k} R_{m,k} into two real
    accumulators, all five buffers of the size of the distinct x.  The
    accumulators are then gathered back to the grid and the phase
    e^(ik phi), a running product of e^(i phi) on the grid, is applied
    once per diagonal.  Each grid point goes through the same
    floating-point operations whether or not other points share its x,
    so the sharing changes no bit of W.  Every update is made in place,
    so the peak memory does not grow with the cutoff.
    """
    if rho.layout.n_factors != 1:
        raise ValueError("the Wigner function requires a single bosonic mode")
    mat = rho.mat
    d = mat.shape[0]
    beta = np.asarray(beta, dtype=complex)
    x, inv = np.unique(4.0 * (beta.real**2 + beta.imag**2), return_inverse=True)
    inv = inv.reshape(beta.shape)  # its shape varies across numpy versions
    two_abs = np.sqrt(x)  # 2|beta|
    unit = np.exp(1j * np.angle(beta))  # e^(i phi); 1 at beta = 0, where R_{0,k>0} = 0
    phase = np.ones(beta.shape, dtype=complex)
    head = (2.0 / math.pi) * np.exp(-x / 2.0)  # R_{0,k}
    prev, cur, tmp, acc_re, acc_im = (np.empty(x.shape) for _ in range(5))
    grid_re, grid_im = np.empty(beta.shape), np.empty(beta.shape)
    w = np.zeros(beta.shape)
    for k in range(d):
        if k:
            head *= two_abs
            head *= 1.0 / math.sqrt(k)
            phase *= unit
        diag = np.diagonal(mat, k) * (2.0 if k else 1.0)
        re, im = diag.real.tolist(), diag.imag.tolist()
        np.copyto(cur, head)
        prev.fill(0.0)
        np.multiply(cur, re[0], out=acc_re)
        np.multiply(cur, im[0], out=acc_im)
        for m in range(d - k - 1):
            # R_{m+1} = -[(2m+1+k-x) R_m + sqrt(m(m+k)) R_{m-1}] / sqrt((m+1)(m+1+k))
            scale = -1.0 / math.sqrt((m + 1) * (m + 1 + k))
            prev *= math.sqrt(m * (m + k)) * scale
            np.subtract(2 * m + 1 + k, x, out=tmp)
            tmp *= cur
            tmp *= scale
            prev += tmp
            prev, cur = cur, prev
            np.multiply(cur, re[m + 1], out=tmp)
            acc_re += tmp
            np.multiply(cur, im[m + 1], out=tmp)
            acc_im += tmp
        # Re[e^(ik phi) (acc_re + i acc_im)], per grid point
        np.take(acc_re, inv, out=grid_re)
        np.take(acc_im, inv, out=grid_im)
        grid_re *= phase.real
        grid_im *= phase.imag
        w += grid_re
        w -= grid_im
    return w


def wigner_point(rho: DensityMatrix, alpha: complex) -> float:
    """W(alpha) = (2/pi) x displaced photon-number parity, in closed form.

    The one-point case of ``wigner_map``, with the same recurrence.
    """
    return float(_wigner(rho, alpha))


def wigner_map(rho: DensityMatrix, re_grid, im_grid) -> WignerMap:
    """W over the whole Re(alpha) x Im(alpha) grid in one vectorized pass.

    W = sum_{m<=n} (2 - delta_mn) Re[rho_mn W_mn(beta)] with the
    displaced-parity matrix elements (Cahill & Glauber, Phys. Rev. 177,
    1857, 1969)

        W_mn = (2/pi) (-1)^m sqrt(m!/n!) (2 beta)^(n-m) e^(-2|beta|^2)
               L_m^(n-m)(4|beta|^2).

    With x = 4|beta|^2 and beta = |beta| e^(i phi), the element on
    diagonal k = n - m is W_{m,m+k} = e^(ik phi) R_{m,k}(x), with R real:

        W = sum_k (2 - delta_k0) Re[e^(ik phi) sum_m rho_{m,m+k} R_{m,k}(x)],
        R_{0,k} = (2/pi) e^(-x/2) (2|beta|)^k / sqrt(k!),
        R_{m+1,k} = -[(2m+1+k-x) R_{m,k} + sqrt(m(m+k)) R_{m-1,k}]
                    / sqrt((m+1)(m+1+k)),

    the iterative scheme of QuTiP's ``wigner`` (Johansson, Nation & Nori,
    CPC 184, 1234, 2013) with the factorials folded into each step, run
    on real arrays of the distinct x of the grid only: mirror points
    beta, beta*, -beta, -beta* and any other points of equal |beta|
    share one R.  For a cutoff d the map costs O(d^2 #distinct x) for the
    recurrence and O(d #grid) for the phases.  e^(ik phi) is a running
    product of e^(i phi), so beta = 0, where R_{0,k>0} = 0, stays exact.
    Every W_mn is a matrix element of (2/pi) D(beta) P D(beta)^dag (P the
    parity), so |R_{m,k}| = |W_{m,m+k}| <= 2/pi: nothing overflows.  The
    map is exact for the truncated rho; no padding is needed.
    """
    re_grid = np.asarray(re_grid, dtype=float)
    im_grid = np.asarray(im_grid, dtype=float)
    for g, name in ((re_grid, "re_grid"), (im_grid, "im_grid")):
        if g.size > 1 and np.any(np.diff(g) <= 0):
            raise ValueError(f"{name} must be strictly increasing")
    beta = re_grid[:, None] + 1j * im_grid[None, :]
    return WignerMap(re_grid, im_grid, _wigner(rho, beta))


def derotate(rho: DensityMatrix, theta: float) -> DensityMatrix:
    """Phase-space rotation R(theta) rho R^dag(theta), R = exp(-i theta a^dag a)."""
    if rho.layout.n_factors != 1:
        raise ValueError("derotate requires a single bosonic mode")
    phases = np.exp(-1j * theta * np.arange(rho.layout.dim))
    return DensityMatrix(rho.layout, (phases[:, None] * rho.mat) * phases.conj()[None, :])
