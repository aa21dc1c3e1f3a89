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
the truncated coherent amplitudes, the Bessel orders, the Chebyshev
propagator on window tables, and the two-level exchange step of the
Jaynes-Cummings manifold {|n,g>, |n-1,e>}.  _coherent_amplitudes
gives the coherent amplitudes in one log-space pass as (u, s): u
scaled to a largest magnitude of 1, which renormalizes at any |alpha|,
and exp(s) u the true amplitudes, for a truncation tail or error.
_bessel_cut is the one order bound of J_k(x): where _bessel_orders
starts its sweep and how long a Chebyshev series runs.  The exchange
step is split in
two: _rabi_rate gives the time-independent Omega(n) and 1/Omega, and
_exchange_step gives cos(Omega t/2) and sin(Omega t/2)/Omega at any
times.  _fock_rabi_amplitudes joins them into the amplitudes (c_g,
c_e) that catprep, floquet, dynamics.analytic_joint_state and the
semiclassical oracle of the acceptance tests use.
dynamics.analytic_qubit_states, the one model of every column of
``catbath decohere``, calls the two halves directly: _rabi_rate once,
and _exchange_step for its table of offsets within a chunk and at the
first time of each chunk, the other times following by angle
addition.

The Chebyshev propagator takes a real H that is bipartite off its
diagonal, as the reservoir Hamiltonian is between the rows of even and
of odd qubit parity, with each half a grid of rows whose couplings come
in window tables: the partners of a whole grid row lie in one window
of the other half.  _chebyshev_operator explains how it uses that
split, and bounds the spectrum by the Gershgorin interval of the whole
table.  Its terms are numpy gathers of whole windows and sums, so no
module of the package imports scipy.

All frequencies are angular (rad/s) and all times are seconds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _coherent_amplitudes(alpha: complex, cutoff: int) -> tuple[np.ndarray, float]:
    """(u, s) with exp(s) u = exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n < cutoff.

    One pass in log space, so neither alpha^n nor n! overflows.  u is
    scaled so that its largest magnitude is 1: its norm cannot
    underflow, as that of the true amplitudes does far past the
    cutoff's reach (at |alpha| = 35, cutoff 40, they are near 1e-229
    and their squares 0), so it renormalizes at any |alpha|.
    """
    if alpha == 0:
        return np.eye(1, cutoff, dtype=complex)[0], 0.0
    n = np.arange(cutoff)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, cutoff, dtype=float))]))
    log_mag = n * math.log(abs(alpha)) - 0.5 * log_fact
    u = np.exp(log_mag - log_mag.max()) * np.exp(1j * np.angle(complex(alpha)) * n)
    return u, log_mag.max() - abs(alpha) ** 2 / 2.0


def coherent_state(alpha: complex, cutoff: int) -> StateVector:
    """Coherent state |alpha> truncated at `cutoff` Fock levels.

    The (u, s) of _coherent_amplitudes give both the state, u
    renormalized after truncation, and the neglected Poisson tail
    1 - exp(2s) sum_n |u_n|^2 of the true amplitudes; a tail past
    _TAIL_TOL emits a TruncationWarning.
    """
    if cutoff < 1:
        raise ValueError(f"invalid dimension: cutoff must be >= 1, got {cutoff}")
    u, s = _coherent_amplitudes(alpha, cutoff)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(np.exp(s) * u) ** 2)))
    if tail > _TAIL_TOL:
        warnings.warn(
            f"coherent state truncation tail {tail:.3e} exceeds tolerance {_TAIL_TOL:.1e} "
            f"at cutoff {cutoff}",
            TruncationWarning,
        )
    return StateVector(SpaceLayout((cutoff,)), u / np.linalg.norm(u))


def displacement(beta: complex, cutoff: int) -> np.ndarray:
    """Displacement operator D(beta) = exp(beta a^dag - beta^* a), as a complex array.

    Computed by exponentiating the Hermitian generator i(beta a^dag -
    beta^* a).  Reports (via TruncationWarning) when the cutoff is too
    small for D(beta)|0> to reproduce the truncated amplitudes of the
    coherent state |beta> to _DISPLACEMENT_TOL.  The generator is itself
    truncated, so the elements are off from the exact <m|D(beta)|n> near
    the cutoff: by 1.35e-10 for the first seven columns at beta = 1.65,
    cutoff 40.  No command calls it: catprep displaces its cat by the
    closed-form ladder of catprep._displaced_columns, and this dense
    exponential is the reference the tests hold that ladder to.
    """
    a = annihilation(cutoff)
    gen = 1j * (beta * a.conj().T - np.conj(beta) * a)  # Hermitian
    mat = _propagate(*np.linalg.eigh(gen), 1.0)
    u, s = _coherent_amplitudes(beta, cutoff)
    err = np.linalg.norm(mat[:, 0] - np.exp(s) * u)
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
    package goes through here; the reservoir Hamiltonian, kept as
    window tables, goes through _chebyshev_propagate.
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


def _bessel_cut(n: int, x: float) -> int:
    """An order past both n and the Airy transition of J_k(x) near k = |x|.

    J_k(x) dies past that transition, which is about |x|^(1/3) wide;
    at this order it is below 1e-27 for |x| up to 1e6.  It is where
    _bessel_orders starts its sweep and how many orders a Chebyshev
    series at argument x computes.
    """
    return int(max(n, abs(x)) + 15.0 * abs(x) ** (1.0 / 3.0) + 50.0)


def _bessel_orders(n_max: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_{n_max}(x) for real x, from one backward recurrence.

    Miller's algorithm: J_{k-1} = (2k/x) J_k - J_{k+1} runs down from
    J_{m+1} = 0, J_m = 1 at m = _bessel_cut(n_max, x), where the true
    J_m is negligible, and the sweep is normalized by J_0 + 2 sum_k
    J_2k = 1 (Gautschi, SIAM Rev. 9, 24, 1967; Abramowitz & Stegun
    9.12).  Run downwards, J is the recurrence's dominant solution, so
    neither the arbitrary start nor rounding grows along the sweep.
    The running values are rescaled when they pass _BESSEL_RESCALE, and
    odd orders change sign for x < 0.  Below |x| = _BESSEL_SMALL_X the leading
    series term (x/2)^n / n! is exact to double precision.
    """
    if abs(x) < _BESSEL_SMALL_X:
        return np.cumprod(np.concatenate(([1.0], (x / 2.0) / np.arange(1.0, n_max + 1))))
    ax = abs(x)
    m = _bessel_cut(n_max, x)
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


def _chebyshev_operator(diag: np.ndarray, start: np.ndarray, amp: np.ndarray):
    """(c, r, starts): the operator that _chebyshev_propagate applies.

    H is real and symmetric, and bipartite off its diagonal: its rows
    fall in two halves, and each coupling joins a row of one half to a
    row of the other, as the reservoir Hamiltonian joins the rows with
    an even and an odd number of excited qubits (each exchange term
    flips one qubit).  Each half is a (P, W) grid of rows, held in a
    flat buffer as one zero, the grid and one zero.  The arguments give
    the two halves on a leading axis of length 2:

    - diag (2, P): the diagonal, one value per grid row p, the same in
      its W columns;
    - start (2, S, P) and amp (2, S, P, W): S slots of couplings.  In
      slot s, row (p, w) of half h couples at amp[h, s, p, w] to
      element start[h, s, p] + w of the other half's buffer, so the
      partners of a whole grid row are one window of W elements; amp 0
      means none.  Each coupling is listed from both of its ends, with
      one amp, so that H is symmetric.

    A complex `diag` or `amp` is an error.  [c - r, c + r] is the
    Gershgorin interval of H over every cell of the table, r the largest
    sum of |amp| over the slots plus |diag - c|, and H~ = (H - c)/r.  A
    pad has radius 0 and the diagonal of its grid row, so it never widens
    that interval.  The values stored are those of 2H~, the recurrence's
    factor 2 included (doubling is exact), scaled in place: `amp`
    becomes the weights, so the caller passes an array it no longer
    needs.  If the table carries no coupling and one diagonal value, H
    is c: r is 0 and there is no table.  For the reservoir Hamiltonian
    that is cutoff 1 with every detuning 0.  Build it once and apply it
    at any number of times.

    A table is (start, weight, diagonal), its weight C-contiguous, and
    its product with v, a vector in buffer form, is

        np.einsum("...kbn,...kbn->...bn", sliding_window_view(v, W)[start], weight)
            + diagonal v,

    a gather of whole windows and a weighted sum over the slots, with
    no BLAS call, so no thread count moves the digits.

    With no diagonal stored (a resonant H, diag all equal to c), 2H~
    takes each half to the other, so a vector v on the even half has
    T_k(H~) v on the even half for even k and on the odd half for odd k,
    and the recurrence runs on one half's grid with the even half's
    table B = (start[0], 2 amp[0] / r, None) for even k and the odd
    half's B^T for odd k; from the odd half it runs with the two
    swapped.  A start is (its half, the other half, (table for even k,
    table for odd k)):

        (0, 1, (B, B^T)) and (1, 0, (B^T, B)).

    A stored diagonal mixes the halves within two terms, so its one
    start is both halves, with one table over both for every k: the
    buffer holds the even grid and then the odd one, so the even half's
    windows move one grid (P W) along; the weights are 2 amp / r with
    the halves on their leading axis, and the diagonal is 2(diag - c)/r
    with one trailing axis for the columns.
    """
    if np.iscomplexobj(diag) or np.iscomplexobj(amp):
        raise ValueError("diag and amp must be real: the series needs a real symmetric H")
    radius = np.abs(amp).sum(axis=1)
    lo = np.min(diag[..., None] - radius)
    hi = np.max(diag[..., None] + radius)
    c, r = (hi + lo) / 2.0, (hi - lo) / 2.0
    if r == 0:
        return c, r, ()
    # the weights in place: a second array of amp's size, fresh from the
    # allocator, costs more than the rest of the build
    weight = amp
    weight /= r
    weight *= 2.0
    if np.any(diag != c):
        shift = np.array([weight[0, 0].size, 0])[:, None, None]
        whole = (start + shift, weight, ((diag - c) / r * 2.0)[..., None])
        both = slice(None)
        return c, r, ((both, both, (whole, whole)),)
    even_table, odd_table = (start[0], weight[0], None), (start[1], weight[1], None)
    return c, r, ((0, 1, (even_table, odd_table)), (1, 0, (odd_table, even_table)))


def _chebyshev_propagate(operator, t: float, x: np.ndarray) -> np.ndarray:
    """exp(-iHt) x for the operator of _chebyshev_operator, by a Chebyshev series.

    x is given on the operator's two grids, shape (2, P, W).
    exp(-iHt) = exp(-ict) sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k(H~)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).  T_k(H~) is
    real, and (-i)^k is real for even k and imaginary for odd k, so the
    three-term recurrence runs in real arithmetic, once for each piece
    of x: its real and its imaginary part on the rows of each start of
    the operator (see _chebyshev_operator for the parity split).  A
    piece that is all zero is skipped, so a zero x returns zeros.  Its
    even terms land on the start's rows, and its odd terms, which carry
    the factor -i, on the other half's rows.  Each term is one table
    product (_chebyshev_sums).  The series stops at the last term whose
    coefficient exceeds _CHEBYSHEV_TOL; J_k(rt) falls off faster than
    exponentially once k > |rt|, so the cost is about r|t| terms per
    nonzero piece, whichever rows x occupies.  At r = 0, H is c, and
    the result is exp(-ict) x.  t may be negative.  x must be finite: a
    missing partner is read at weight 0, and 0 * inf is NaN.
    """
    c, r, starts = operator
    if r == 0:
        return np.exp(-1j * c * t) * x
    z = r * t
    # the _CHEBYSHEV_TOL cut below always falls inside _bessel_cut
    k = np.arange(_bessel_cut(0, z))
    # (-i)^k is sign_k for even k and -i sign_k for odd k
    sign = np.array([1.0, 1.0, -1.0, -1.0])[k % 4]
    coef = np.where(k == 0, 1.0, 2.0) * sign * _bessel_orders(k.size - 1, z)
    # at least T_0 and T_1, so the recurrence below always has its start
    coef = coef[: max(np.flatnonzero(np.abs(coef) > _CHEBYSHEV_TOL)[-1] + 1, 2)]
    out = np.zeros(x.shape, dtype=complex)
    for part, unit in ((x.real, 1.0), (x.imag, 1j)):
        for here, there, tables in starts:
            v = part[here]
            if v.any():
                even, odd = _chebyshev_sums(tables, coef, v)
                out[here] += unit * even
                out[there] += -1j * unit * odd
    return np.exp(-1j * c * t) * out


def _chebyshev_sums(tables, coef, v):
    """[sum over even k, sum over odd k] of coef_k T_k(H~) v.

    T_1 = (1/2) P_1 v and T_k = P_(k % 2) T_(k-1) - T_(k-2), with P_j
    the product of 2H~ by tables[j], the (even k, odd k) pair of one
    start.  The recurrence keeps its three latest T_k in three buffers,
    each v's grid between two zeros, whose window views are made once:
    a product gathers whole windows of one buffer and sums them over
    the slots into the grid of the next.  A zero weight on every pad
    and missing partner keeps each buffer's pads and end zeros at 0.
    """
    width = v.shape[-1]
    buffers = np.zeros((3, v.size + 2))
    windows = [sliding_window_view(buffer, width) for buffer in buffers]
    grids = buffers[:, 1:-1].reshape((3,) + v.shape)

    def product(j, src, dst):
        start, weight, diagonal = tables[j]
        np.einsum("...kbn,...kbn->...bn", windows[src][start], weight, out=grids[dst])
        if diagonal is not None:
            grids[dst] += diagonal * grids[src]

    grids[0] = v
    product(1, 0, 1)
    grids[1] *= 0.5
    sums = [coef[0] * grids[0], coef[1] * grids[1]]
    prev, cur, nxt = 0, 1, 2
    for k in range(2, coef.size):
        product(k % 2, cur, nxt)
        grids[nxt] -= grids[prev]
        prev, cur, nxt = cur, nxt, prev
        sums[k % 2] += coef[k] * grids[cur]
    return sums


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
