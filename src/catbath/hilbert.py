"""Truncated-Fock-space linear algebra.

States and operators live on a :class:`SpaceLayout`, an ordered tensor
product of one (optional) bosonic mode and a register of two-level
systems.  Factor 0 is the slowest-varying index in the flattened
amplitude vector; this convention is fixed so that results are
bit-comparable across runs.  OperatorMatrix is the Hamiltonian that
evolve and evolve_td (which steps through evolve) check against the
state's layout; DensityMatrix adds validate().  annihilation and
displacement return plain complex arrays.

The closed forms the other modules share have their one copy here:
the truncated coherent amplitudes, the Bessel orders, the sparse
Chebyshev propagator, and the two-level exchange step of the
Jaynes-Cummings manifold {|n,g>, |n-1,e>}.  That step is split in
two: _rabi_rate gives the time-independent Omega(n) and 1/Omega, and
_exchange_step gives cos(Omega t/2) and sin(Omega t/2)/Omega at any
times.  _fock_rabi_amplitudes joins them into the amplitudes (c_g,
c_e) that catprep, floquet and the semiclassical branch model use;
dynamics.analytic_qubit_states calls the two halves directly.

All frequencies are angular (rad/s) and all times are seconds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceLayout",
    "StateVector",
    "DensityMatrix",
    "OperatorMatrix",
    "TruncationWarning",
    "annihilation",
    "coherent_state",
    "displacement",
    "evolve",
    "evolve_td",
    "partial_trace",
    "density_from_state",
    "fidelity",
]


# DensityMatrix.validate: Hermiticity, unit trace, lowest eigenvalue
_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIG_FLOOR = -1e-8
# largest neglected Poisson tail of coherent_state without a warning
_TAIL_TOL = 1e-8
# largest |D(beta)|0> - |beta>| of displacement without a warning
_DISPLACEMENT_TOL = 1e-6
# smallest Chebyshev coefficient _chebyshev_propagate keeps
_CHEBYSHEV_TOL = 1e-17
# _bessel_orders: rescale the backward sweep past this magnitude, and
# below this |x|, where 2k/x could overflow, take the series' first term
_BESSEL_RESCALE = 1e250
_BESSEL_SMALL_X = 1e-8


class TruncationWarning(UserWarning):
    """Fock-space cutoff too small for the requested construction."""


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered subsystem dimensions of a composite Hilbert space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("layout needs at least one factor")
        if any(d < 1 for d in dims):
            raise ValueError(f"invalid dimension in layout {dims}")
        if sum(1 for d in dims if d > 2) > 1:
            raise ValueError("at most one bosonic factor is allowed")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def index(self, levels) -> int:
        """Flat index of a product basis state (factor 0 slowest)."""
        return int(np.ravel_multi_index(tuple(levels), self.dims))


def _check_same_layout(a, b):
    if a.layout != b.layout:
        raise ValueError(f"layout mismatch: {a.layout.dims} vs {b.layout.dims}")


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a SpaceLayout."""

    layout: SpaceLayout
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.layout.dim,):
            raise ValueError(
                f"amplitude length {amps.shape} does not match layout dim {self.layout.dim}"
            )
        object.__setattr__(self, "amps", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex square matrix tagged with its SpaceLayout."""

    layout: SpaceLayout
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match layout dim {d}")
        object.__setattr__(self, "mat", mat)


class DensityMatrix(OperatorMatrix):
    """Complex Hermitian matrix over a SpaceLayout.

    Physicality (hermiticity, unit trace, positivity) is checked by
    :meth:`validate`; raw linear reconstructions may legitimately violate
    positivity and are handled by the analysis module.
    """

    def validate(self):
        if np.max(np.abs(self.mat - self.mat.conj().T)) > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(self.mat).real - 1.0) > _TRACE_TOL:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(self.mat).min() < _EIG_FLOOR:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        return self


def density_from_state(psi: StateVector) -> DensityMatrix:
    return DensityMatrix(psi.layout, np.outer(psi.amps, psi.amps.conj()))


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2 between two pure states."""
    _check_same_layout(a, b)
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def annihilation(cutoff: int) -> np.ndarray:
    """Bosonic ladder operator a on a truncated Fock space, as a complex array.

    <n-1|a|n> = sqrt(n) for 1 <= n < cutoff.
    """
    if cutoff < 1:
        raise ValueError(f"invalid dimension: cutoff must be >= 1, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n < cutoff, not renormalized.

    Evaluated in log space, so neither alpha^n nor n! overflows.
    """
    if alpha == 0:
        return np.eye(1, cutoff, dtype=complex)[0]
    n = np.arange(cutoff)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, cutoff, dtype=float))]))
    log_mag = n * math.log(abs(alpha)) - 0.5 * log_fact - abs(alpha) ** 2 / 2.0
    return np.exp(log_mag) * np.exp(1j * np.angle(complex(alpha)) * n)


def coherent_state(alpha: complex, cutoff: int) -> StateVector:
    """Coherent state |alpha> truncated at `cutoff` Fock levels.

    The amplitudes of _coherent_amplitudes, renormalized after
    truncation.  Emits a TruncationWarning when the neglected Poisson
    tail 1 - sum_n |amps[n]|^2 exceeds _TAIL_TOL.
    """
    if cutoff < 1:
        raise ValueError(f"invalid dimension: cutoff must be >= 1, got {cutoff}")
    amps = _coherent_amplitudes(alpha, cutoff)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    if tail > _TAIL_TOL:
        warnings.warn(
            f"coherent state truncation tail {tail:.3e} exceeds tolerance {_TAIL_TOL:.1e} "
            f"at cutoff {cutoff}",
            TruncationWarning,
        )
    return StateVector(SpaceLayout((cutoff,)), amps / np.linalg.norm(amps))


def displacement(beta: complex, cutoff: int) -> np.ndarray:
    """Displacement operator D(beta) = exp(beta a^dag - beta^* a), as a complex array.

    Computed by exponentiating the Hermitian generator i(beta a^dag -
    beta^* a).  Reports (via TruncationWarning) when the cutoff is too
    small for D(beta)|0> to reproduce the truncated amplitudes of the
    coherent state |beta> to _DISPLACEMENT_TOL.
    """
    a = annihilation(cutoff)
    gen = 1j * (beta * a.conj().T - np.conj(beta) * a)  # Hermitian
    mat = _propagate(*np.linalg.eigh(gen), 1.0)
    err = np.linalg.norm(mat[:, 0] - _coherent_amplitudes(beta, cutoff))
    if err >= _DISPLACEMENT_TOL:
        warnings.warn(
            f"displacement truncation error |D(beta)|0> - |beta>| = {err:.3e} at cutoff "
            f"{cutoff}; increase the cutoff",
            TruncationWarning,
        )
    return mat


def _propagate(w: np.ndarray, v: np.ndarray, t: float, x: np.ndarray | None = None):
    """exp(-iHt) x for H = v diag(w) v^dagger; the propagator itself if x is None.

    `x` may be a vector or a matrix.  Every dense unitary step in the
    package goes through here; sparse Hamiltonians go through
    _chebyshev_propagate.
    """
    vp = v * np.exp(-1j * w * t)
    return vp @ v.conj().T if x is None else vp @ (v.conj().T @ x)


def _rabi_rate(n, lam, delta) -> tuple[np.ndarray, np.ndarray]:
    """Omega(n) = sqrt(n lambda^2 + delta^2) and 1/Omega, which is 0 where Omega = 0.

    The time-independent half of the exchange step: a caller that
    takes one set of rates at many times builds it once.  Arguments
    broadcast.
    """
    omega = np.sqrt(n * lam**2 + delta**2)
    inv_omega = 1.0 / np.where(omega > 0, omega, np.inf)
    return omega, inv_omega


def _exchange_step(omega, inv_omega, t) -> tuple[np.ndarray, np.ndarray]:
    """cos(Omega t/2) and sin(Omega t/2)/Omega for the (Omega, 1/Omega) of _rabi_rate.

    sin(Omega t/2)/Omega takes its limit t/2 where Omega = 0.  Arguments
    broadcast, and the result has their broadcast shape.
    """
    half = omega * (t / 2.0)
    sin_over_omega = np.sin(half) * inv_omega
    zero = omega == 0
    if zero.any():
        sin_over_omega = np.where(zero, t / 2.0, sin_over_omega)
    return np.cos(half), sin_over_omega


def _fock_rabi_amplitudes(n, lam, delta, t) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of |n,g> -> c_g |n,g> + c_e |n-1,e> under one exchange term.

    The term is delta |e><e| + (lambda/2)(a |e><g| + a^dag |g><e|); it
    keeps {|n,g>, |n-1,e>} closed and rotates it at Omega(n) =
    sqrt(n lambda^2 + delta^2):

        c_g = cos(Omega t/2) + i delta sin(Omega t/2)/Omega
        c_e = -i sqrt(n) lambda sin(Omega t/2)/Omega

    with both trigonometric parts from _exchange_step, so Omega = 0
    gives c_g = 1 and c_e = 0.  The common phase exp(-i delta t/2) is
    left to the caller.  Arguments broadcast.  catprep takes it at
    lambda = 2 xi, delta = 0, floquet at n = 1.
    """
    cos, sin_over_omega = _exchange_step(*_rabi_rate(n, lam, delta), t)
    c_g = cos + 1j * delta * sin_over_omega
    c_e = -1j * np.sqrt(n) * lam * sin_over_omega
    return c_g, c_e


def _bessel_orders(n_max: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_{n_max}(x) for real x, from one backward recurrence.

    Miller's algorithm: J_{k-1} = (2k/x) J_k - J_{k+1} runs down from
    J_{m+1} = 0, J_m = 1 at an order m past both n_max and the Airy
    transition near k = |x|, where the true J_m is negligible, and the
    sweep is normalized by J_0 + 2 sum_k J_2k = 1 (Gautschi, SIAM Rev.
    9, 24, 1967; Abramowitz & Stegun 9.12).  Run downwards, J is the
    recurrence's dominant solution, so neither the arbitrary start nor
    rounding grows along the sweep.  The running values are rescaled when they pass _BESSEL_RESCALE, and odd orders
    change sign for x < 0.  Below |x| = _BESSEL_SMALL_X the leading
    series term (x/2)^n / n! is exact to double precision.
    """
    if abs(x) < _BESSEL_SMALL_X:
        return np.cumprod(np.concatenate(([1.0], (x / 2.0) / np.arange(1.0, n_max + 1))))
    ax = abs(x)
    m = int(max(n_max, ax) + 15.0 * ax ** (1.0 / 3.0) + 50.0)
    j = np.zeros(m + 1)
    above, cur = 0.0, 1.0  # J_{k+1} and J_k, up to a common factor
    for k in range(m, 0, -1):
        j[k] = cur
        above, cur = cur, 2.0 * k / ax * cur - above
        if abs(cur) > _BESSEL_RESCALE:
            j[k:] /= _BESSEL_RESCALE
            above /= _BESSEL_RESCALE
            cur /= _BESSEL_RESCALE
    j[0] = cur
    j /= j[0] + 2.0 * j[2::2].sum()
    if x < 0:
        j[1::2] = -j[1::2]
    return j[: n_max + 1]


def _chebyshev_operator(diag: np.ndarray, src: np.ndarray, dst: np.ndarray, amp: np.ndarray):
    """(c, r, 2H~): the operator that _chebyshev_propagate applies.

    H has the real diagonal `diag` and the real off-diagonal elements
    H[src, dst] = H[dst, src] = amp, each pair listed once; a complex
    `diag` or `amp` is an error.  [c - r, c + r] is the Gershgorin
    interval of its spectrum and H~ = (H - c)/r.  The factor 2 of the
    Chebyshev recurrence is stored in the values of the real CSR
    matrix 2H~; doubling is exact, so this changes no digit.  Diagonal
    entries equal to c are zero in H~ and are not stored.  Build it
    once and apply it at any number of times.
    """
    if np.iscomplexobj(diag) or np.iscomplexobj(amp):
        raise ValueError("diag and amp must be real: the series needs a real symmetric H")
    # imported here: the exact block engine is the package's only user of
    # scipy, and a module-level import would load it on every CLI start
    from scipy import sparse

    dim = diag.size
    radius = np.bincount(src, np.abs(amp), dim) + np.bincount(dst, np.abs(amp), dim)
    lo, hi = np.min(diag - radius), np.max(diag + radius)
    # a diagonal H with one value has r = 0; any r > 0 then bounds it
    c, r = (hi + lo) / 2.0, max((hi - lo) / 2.0, np.finfo(float).tiny)
    shifted = np.flatnonzero(diag != c)
    # int32 indices, and arrays that die with the call, keep the assembly small
    as_int32 = {"dtype": np.int32, "casting": "same_kind"}
    two_h = sparse.csr_matrix(
        (
            np.concatenate([diag[shifted] - c, amp, amp]) / r * 2.0,
            (
                np.concatenate([shifted, src, dst], **as_int32),
                np.concatenate([shifted, dst, src], **as_int32),
            ),
        ),
        shape=(dim, dim),
    )
    return c, r, two_h


def _chebyshev_propagate(operator, t: float, x: np.ndarray) -> np.ndarray:
    """exp(-iHt) x for the (c, r, 2H~) of _chebyshev_operator, by a Chebyshev series.

    exp(-iHt) = exp(-ict) sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k(H~)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).  T_k(H~) is
    real, and (-i)^k is real for even k and imaginary for odd k, so the
    three-term recurrence T_k = 2H~ T_(k-1) - T_(k-2) runs in real
    arithmetic on the real and on the imaginary part of x, and each
    part's even and odd terms are summed separately and combined once
    at the end.  A part of x that is all zero is skipped.  The series
    stops at the last term whose coefficient exceeds _CHEBYSHEV_TOL;
    J_k(rt) falls off faster than exponentially once k > |rt|.  Only
    2H~ v products are formed, so the cost is about r|t| real sparse
    products per nonzero part of x, each of one pass over the stored
    entries of 2H~.  t may be negative.
    """
    c, r, two_h = operator
    dim = x.size
    z = r * t
    # J_k(z) dies past the Airy transition, about |z|^(1/3) wide beyond
    # k = |z|; at this length it is below 1e-27 for |z| up to 1e6, so the
    # cut below always falls inside
    k = np.arange(int(abs(z) + 15.0 * abs(z) ** (1.0 / 3.0) + 50.0))
    # (-i)^k is sign_k for even k and -i sign_k for odd k
    sign = np.array([1.0, 1.0, -1.0, -1.0])[k % 4]
    coef = np.where(k == 0, 1.0, 2.0) * sign * _bessel_orders(k.size - 1, z)
    coef = coef[: np.flatnonzero(np.abs(coef) > _CHEBYSHEV_TOL)[-1] + 1]
    term = np.empty(dim)  # c_k T_k v

    def series(v):
        """[even, odd]: sum_k coef_k T_k(H~) v over even and over odd k."""
        sums = [coef[0] * v, np.zeros(dim)]
        prev, cur = None, v
        for k, ck in enumerate(coef[1:], 1):
            nxt = two_h @ cur
            if k == 1:  # T_1 = H~ T_0
                nxt *= 0.5
            else:  # T_k = 2 H~ T_(k-1) - T_(k-2), in place
                nxt -= prev
            prev, cur = cur, nxt
            sums[k % 2] += np.multiply(ck, cur, out=term)
        return sums

    # the odd terms carry the factor -i of (-i)^k
    out = np.zeros(dim, dtype=complex)
    for part, unit in ((x.real, 1.0), (x.imag, 1j)):
        if part.any():
            even, odd = series(part)
            out += unit * (even - 1j * odd)
    return np.exp(-1j * c * t) * out


def evolve(H: OperatorMatrix, psi: StateVector, t: float) -> StateVector:
    """Propagate |psi> by exp(-iHt) via Hermitian eigendecomposition.

    No command calls it: it is the dense oracle of the tests and of the
    benchmark's checks.
    """
    _check_same_layout(H, psi)
    scale = max(1.0, float(np.max(np.abs(H.mat))))
    if np.max(np.abs(H.mat - H.mat.conj().T)) > 1e-9 * scale:
        raise ValueError("Hamiltonian is not Hermitian")
    return StateVector(psi.layout, _propagate(*np.linalg.eigh(H.mat), t, psi.amps))


def evolve_td(h_of_t, psi: StateVector, t_end: float, dt: float) -> StateVector:
    """Time-ordered propagation with midpoint-rule step unitaries.

    `h_of_t(t)` must return the instantaneous Hamiltonian as an
    OperatorMatrix on the state's layout; each step is one call to
    evolve, which checks it.  The step error is O(dt^2) per unit time.
    No command calls it: it is the dense oracle of the closed-form
    steps in floquet.swap_frequency.  t_end must be finite and
    nonnegative, and dt finite and positive.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end}")
    n_steps = max(1, int(round(t_end / dt)))
    step = t_end / n_steps
    for k in range(n_steps):
        psi = evolve(h_of_t((k + 0.5) * step), psi, step)
    return psi


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the factors listed in `keep` (original order)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must not be empty")
    dims = rho.layout.dims
    if any(not 0 <= k < len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for layout {dims}")
    n = len(dims)
    tensor = rho.mat.reshape(dims + dims)
    # einsum indices: traced factors share a label on both sides
    row = list(range(n))
    col = list(range(n, 2 * n))
    for s in range(n):
        if s not in keep:
            col[s] = row[s]
    out_idx = [row[s] for s in keep] + [col[s] for s in keep]
    reduced = np.einsum(tensor, row + col, out_idx)
    kept_dims = tuple(dims[s] for s in keep)
    d = int(np.prod(kept_dims))
    return DensityMatrix(SpaceLayout(kept_dims), reduced.reshape(d, d))
