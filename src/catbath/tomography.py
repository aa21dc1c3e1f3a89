"""Photon-number readout emulation and Wigner reconstruction.

An ancilla qubit resonantly coupled to the field Rabi-oscillates at
2 xi sqrt(n) inside each Fock manifold, so from |g> its excited-state
signal

    P_e(tau) = 1/2 {1 - sum_n P_n cos(2 xi sqrt(n) tau)}

encodes the photon distribution P_n; a constrained least-squares fit
inverts it.  The Wigner function is the displaced parity,
W(alpha) = (2/pi) sum_n (-1)^n <n| D^dag(alpha) rho D(alpha) |n>.  On a
rectangular grid it is a separable sum over orthonormal Hermite
functions of order <= 2d - 2 for a cutoff d,

    W(beta) = sum_{j,l} G_jl h_j(2 Re beta) h_l(2 Im beta),

because the Wigner transform of |m><n| is a 50:50 beam splitter on
h_m x h_n followed by a Fourier transform that only multiplies h_l by
(-i)^l (Wunsche, J. Phys. A 31, 8267, 1998).  G is built once per rho
in O(d^3), one anti-diagonal m + n of rho at a time, by a step of the
splitter coefficients under which rounding barely grows; the h_j come
from their three-term recurrence, and W = H_re^T (G H_im) from two
``np.einsum`` contractions, with no BLAS call.  See ``wigner_map``.
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
    pe = 0.5 - _design_matrix(taus, xi, pn.size - 1) @ pn
    return RabiTrace(taus, pe, xi)


def _design_matrix(taus: np.ndarray, xi: float, n_max: int) -> np.ndarray:
    """A[i, n] = cos(2 xi sqrt(n) tau_i) / 2, so that P_e = 1/2 - A P_n."""
    freqs = 2.0 * xi * np.sqrt(np.arange(n_max + 1, dtype=float))
    return 0.5 * np.cos(freqs[None, :] * taus[:, None])


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
    a = _design_matrix(trace.taus, trace.xi, n_max)
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


def _splitter(d: int):
    """Yield, for N = 0 .. 2d - 2, the splitter matrix of anti-diagonal N.

    Row m - lo holds b^{m,N-m}_j = <j, N-j|U|m, N-m>, j = 0 .. N, for
    m = lo .. min(N, d - 1), lo = max(0, N - d + 1): the rows a cutoff-d
    rho reaches, which need no others.  U is the 50:50 splitter,
    U a1^dag U^dag = (a1^dag + a2^dag)/sqrt2 and
    U a2^dag U^dag = (a1^dag - a2^dag)/sqrt2, so each matrix is real and,
    for N < d, orthogonal.  A row is the average of its step from
    anti-diagonal N - 1 by a1^dag and its step by a2^dag, weighted m/N
    and (N-m)/N:

        b^{mn} = [sqrt(m) A+ b^{m-1,n} + sqrt(n) A- b^{m,n-1}] / (sqrt2 N),
        (A+- c)_j = sqrt(j) c_{j-1} +- sqrt(N-j) c_j,

    under which rounding barely grows: at N = 39 the matrix is orthogonal
    to 6e-15, against 1e-11 when all a2^dag steps come before all a1^dag.
    """
    sq = np.sqrt(np.arange(2 * d))
    b = np.ones((1, 1))
    yield b
    for n in range(1, 2 * d - 1):
        lo, hi = max(0, n - d + 1), min(n, d - 1)
        ext = np.zeros((hi - lo + 2, n))  # rows m = lo - 1 .. hi of N - 1
        ext[max(0, n - d) - lo + 1 :][: b.shape[0]] = b
        m = np.arange(lo, hi + 1)[:, None]
        u = ext[:-1] * (sq[m] / (math.sqrt(2.0) * n))
        v = ext[1:] * (sq[n - m] / (math.sqrt(2.0) * n))
        b = np.zeros((hi - lo + 1, n + 1))
        b[:, 1:] = sq[1 : n + 1] * (u + v)
        b[:, :-1] += sq[n:0:-1] * (u - v)
        yield b


def _wigner(rho: DensityMatrix, re_grid, im_grid) -> np.ndarray:
    """W on the grid re_grid x im_grid, as the separable sum of ``wigner_map``."""
    if rho.layout.n_factors != 1:
        raise ValueError("the Wigner function requires a single bosonic mode")
    d = rho.mat.shape[0]
    # rho_mn with m <= n as given, the rest as conj(rho_nm); flipped, so
    # that anti-diagonal N of rho is a diagonal
    flip = (np.triu(rho.mat) + np.triu(rho.mat, 1).conj().T)[:, ::-1]
    size = 2 * d - 1
    phase = (-1j) ** np.arange(size)
    # G flat: its anti-diagonal N, G[j, N - j] for j = 0 .. N, is the
    # slice from N to N size in steps of size - 1 (of 1 when size is 1)
    g = np.zeros(size * size)
    step = max(size - 1, 1)
    for n, b in enumerate(_splitter(d)):
        s = np.einsum("m,mj->j", np.diagonal(flip, d - 1 - n), b)
        g[n : n * size + 1 : step] = (phase[n::-1] * s).real
    g = g.reshape(size, size)
    g *= 2.0 / math.sqrt(math.pi)
    # h_0 .. h_{2d-2} at 2 Re beta, then at 2 Im beta, one row per point
    x = 2.0 * np.concatenate([re_grid, im_grid])
    h = np.zeros((x.size, 2 * d - 1))
    h[:, 0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    for k in range(2 * d - 2):
        h[:, k + 1] = math.sqrt(2.0 / (k + 1)) * x * h[:, k] - math.sqrt(k / (k + 1)) * h[:, k - 1]
    h_re, h_im = h[: len(re_grid)], h[len(re_grid) :]
    # each W is one dot over j of two contiguous rows of length 2d - 1,
    # whatever the shape of the grid: no BLAS, no dependence on neighbours
    return np.einsum("ij,kj->ik", h_re, np.einsum("kl,jl->kj", h_im, g))


def wigner_point(rho: DensityMatrix, alpha: complex) -> float:
    """W(alpha) = (2/pi) x displaced photon-number parity, in closed form.

    The 1 x 1 grid of ``wigner_map``, through the same kernel; its cost
    is the O(d^3) of building G.
    """
    alpha = complex(alpha)
    return float(_wigner(rho, [alpha.real], [alpha.imag])[0, 0])


def wigner_map(rho: DensityMatrix, re_grid, im_grid) -> WignerMap:
    """W over the whole Re(alpha) x Im(alpha) grid, as a separable sum.

    With h_j the orthonormal Hermite functions,

        W(beta) = sum_{j,l} G_jl h_j(2 Re beta) h_l(2 Im beta),
        G_{j,N-j} = (2/sqrt(pi)) Re[(-i)^(N-j) sum_m rho_{m,N-m} b^{m,N-m}_j],

    for j, l <= 2d - 2 and a cutoff d, exactly for the truncated rho:
    the Wigner transform of |m><n| turns h_m(x) h_n(y) by 45 degrees, a
    50:50 beam splitter with coefficients b^{mn}_j = <j, N-j|U|m, n>,
    N = m + n, and then takes a Fourier transform that only multiplies
    h_l by (-i)^l (Wunsche, J. Phys. A 31, 8267, 1998).  Like the
    Laguerre sum over m <= n of the displaced-parity elements (Cahill &
    Glauber, Phys. Rev. 177, 1857, 1969) it reads rho_mn for m <= n
    only, and takes rho_nm as conj(rho_mn).  G is built once per rho, one
    anti-diagonal N at a time from the previous one by the symmetric
    step of ``_splitter``, and contracted with rho's anti-diagonal as
    soon as it is formed.  h_0 .. h_{2d-2} are tabulated at 2 re_grid and
    2 im_grid by their three-term recurrence, and W = H_re^T (G H_im) by
    two ``np.einsum`` contractions, which make no BLAS call.  The map
    costs O(d^3 + d (n_re + n_im) + d^2 n_im + d n_re n_im).  Nothing
    overflows: each b^{mn} is a unit vector and |h_j| <= pi^(-1/4)
    everywhere.  Far from the origin h_0, and with it each h_j, comes
    out 0 or subnormal, an absolute error far below W's rounding.
    """
    re_grid = np.asarray(re_grid, dtype=float)
    im_grid = np.asarray(im_grid, dtype=float)
    for g, name in ((re_grid, "re_grid"), (im_grid, "im_grid")):
        if g.size > 1 and np.any(np.diff(g) <= 0):
            raise ValueError(f"{name} must be strictly increasing")
    return WignerMap(re_grid, im_grid, _wigner(rho, re_grid, im_grid))


def derotate(rho: DensityMatrix, theta: float) -> DensityMatrix:
    """Phase-space rotation R(theta) rho R^dag(theta), R = exp(-i theta a^dag a)."""
    if rho.layout.n_factors != 1:
        raise ValueError("derotate requires a single bosonic mode")
    phases = np.exp(-1j * theta * np.arange(rho.layout.dim))
    return DensityMatrix(rho.layout, (phases[:, None] * rho.mat) * phases.conj()[None, :])
