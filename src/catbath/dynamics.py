"""Cat-state decoherence in an N-qubit exchange reservoir.

The field mode couples to N qubits through resonant exchange terms
(lambda_k/2)(a |e><g|_k + a^dag |g><e|_k) plus per-qubit detunings.
An initial amplitude cat N+(|0> + |alpha>) splits into two branches:
the vacuum branch leaves the qubits in |g...g>, the |alpha> branch
drives collective Rabi oscillations.

Both analytic pictures of the |alpha> branch evaluate one Rabi kernel:
Fock component n drives qubit k at Omega_k(n) =
sqrt(n lambda_k^2 + delta_k^2).  It is the two-level exchange step of
hilbert, which also gives the swaps of catprep and the Floquet map of
floquet.

- analytic_joint_state evolves the cat photon number by photon
  number, and each excited qubit shifts the field down by one photon.
  |0, G> is level 0 of that map, which leaves it fixed.
  This carries the back-action on the field (Gea-Banacloche, PRL 65,
  3385, 1990).  It is exact at N = 1 and approximate for N >= 2, since
  it ignores that a photon taken by one qubit lowers the rate the
  others see.  analytic_qubit_states gives qubit 0's reduced state and
  the cross-branch coherence |coh| of this model on a whole time grid
  t_j = j dt in closed form, without forming the 2^N branch; on the
  grid its phases follow by angle addition from one table and one
  direct evaluation per chunk, and it issues one "strained" warning
  for all its times.  It is the one model of every column that
  ``catbath decohere`` writes.
- branch_amplitudes, branch_states and coherence_factor are the
  semiclassical n = <n> case: the field is a classical drive of Rabi
  frequency Omega_k = sqrt(<n> lambda_k^2 + delta_k^2).  No CLI path
  or script calls them; they are the oracle of acceptance criteria 4
  and 5.

Exact propagation is the reference for both.  evolve_excitation_blocks
applies the reservoir Hamiltonian by a Chebyshev series at any register
size.  It holds the state as two (qubit pattern x photon number) grids,
one per qubit parity, the two halves of the split that
hilbert._chebyshev_operator explains: each exchange term flips one
qubit and moves one photon, so the partners of a whole photon row lie
in one photon row of the other grid, and the Hamiltonian is a window
table per qubit taken straight from the basis bits.  Its spectral bound
is the Gershgorin interval of that whole table, and the operator of
its last (spec, cutoff) is kept, so a repeated call on the same
Hamiltonian costs the series alone.  At delta = 0 the cat (x) |G> lies
on the even grid, and each term of the series is one gather of whole
photon rows from one grid and one sum over the qubits.  The dense reservoir_hamiltonian with
hilbert.evolve is kept as the test oracle for small registers.

Dynamics layouts are boson (x) qubits, boson first (factor 0).
"""

from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    DensityMatrix,
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    _chebyshev_operator,
    _chebyshev_propagate,
    _exchange_step,
    _fock_rabi_amplitudes,
    _rabi_rate,
    annihilation,
    coherent_state,
)

__all__ = [
    "ReservoirSpec",
    "BranchAmplitudes",
    "reservoir_hamiltonian",
    "branch_amplitudes",
    "branch_states",
    "analytic_joint_state",
    "analytic_qubit_states",
    "coherence_factor",
    "evolve_excitation_blocks",
    "cat_with_ground_qubits",
    "reduced_qubit_state",
    "reduced_field_state",
]

# the dense Hamiltonian, a small-register oracle, is refused above this
# dimension; evolve_excitation_blocks takes any size
MAX_DENSE_DIM = 4096
# analytic_qubit_states evaluates this many times per array pass, and
# its table of phase offsets a dt has this length.  At N = 8, cutoff
# 40, 401 times, on a 2-vCPU Xeon VM with one BLAS thread, the kernel
# takes 6.5 ms with 32, 8.4 ms with 16 and 5.3 ms with 64 (in-process
# medians of 60).  Two decohere-n8 benchmark runs each read a
# norm_wall_s of 17.5 ms and a peak RSS of 61.15 MiB with 32, 20.3 ms
# and 60.6 MiB with 16, and 16.6-17.1 ms and 62.2 MiB with 64: 64 buys
# under 1 ms for 1 MiB
_TIME_CHUNK = 32
# the branch model is strained once the excitation leaked to the qubits
# passes this share of <n>
_STRAIN_SHARE = 0.1


@dataclass(frozen=True)
class ReservoirSpec:
    """Exchange couplings lambda_k, detunings delta_k (rad/s), <n> = |alpha|^2."""

    couplings: tuple[float, ...]
    detunings: tuple[float, ...]
    n_mean: float

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(x) for x in self.couplings))
        object.__setattr__(self, "detunings", tuple(float(x) for x in self.detunings))
        for name in ("couplings", "detunings", "n_mean"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if len(self.couplings) != len(self.detunings):
            raise ValueError("couplings and detunings must have equal length")
        if len(self.couplings) < 1:
            raise ValueError("need at least one reservoir qubit")
        if any(l <= 0 for l in self.couplings):
            raise ValueError("all couplings must be positive")
        if self.n_mean < 0:
            raise ValueError("n_mean must be nonnegative")
        # the squared semiclassical rate Omega_k^2 of hilbert._rabi_rate
        for k, (lam, delta) in enumerate(zip(self.couplings, self.detunings)):
            if not np.isfinite(self.n_mean * (lam * lam) + delta * delta):
                raise OverflowError(f"<n> lambda_k^2 + delta_k^2 of qubit {k} overflows a float")

    @property
    def n_qubits(self) -> int:
        return len(self.couplings)


@dataclass(frozen=True)
class BranchAmplitudes:
    """Qubit amplitudes (c_g, c_e) of the semiclassical |alpha> branch and Rabi rate Omega_k.

    What branch_amplitudes returns, for the acceptance-criterion oracles.
    """

    c_g: complex
    c_e: complex
    omega_k: float


def _layout(spec: ReservoirSpec, cutoff: int) -> SpaceLayout:
    return SpaceLayout((cutoff,) + (2,) * spec.n_qubits)


def reservoir_hamiltonian(spec: ReservoirSpec, cutoff: int) -> OperatorMatrix:
    """H = sum_k [delta_k |e><e|_k + (lambda_k/2)(a |e><g|_k + h.c.)].

    Conserves the total excitation number a^dag a + sum_k |e><e|_k.
    Refuses dimensions past MAX_DENSE_DIM; use evolve_excitation_blocks
    for large registers.
    """
    layout = _layout(spec, cutoff)
    if layout.dim > MAX_DENSE_DIM:
        raise ValueError(
            f"dense Hamiltonian dimension {layout.dim} exceeds {MAX_DENSE_DIM}; "
            "use evolve_excitation_blocks"
        )
    a = annihilation(cutoff)
    pe = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    seg = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|
    eye2 = np.eye(2)
    mat = np.zeros((layout.dim, layout.dim), dtype=complex)
    for k in range(spec.n_qubits):
        raise_k = a.copy()
        diag_k = np.eye(cutoff, dtype=complex)
        for j in range(spec.n_qubits):
            raise_k = np.kron(raise_k, seg if j == k else eye2)
            diag_k = np.kron(diag_k, pe if j == k else eye2)
        half = spec.couplings[k] / 2.0
        mat += half * (raise_k + raise_k.conj().T) + spec.detunings[k] * diag_k
    return OperatorMatrix(layout, mat)


def _require_finite(t) -> None:
    """Reject a NaN or infinite time (or any in an array of times)."""
    if not np.all(np.isfinite(t)):
        raise ValueError(f"t must be finite, got {t}")


def _nonnegative_times(t) -> np.ndarray:
    """t as a float array; a NaN, an infinite or a negative time is an error."""
    t = np.asarray(t, dtype=float)
    _require_finite(t)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    return t


def _semiclassical_amplitudes(t, spec: ReservoirSpec) -> tuple[np.ndarray, np.ndarray]:
    """(c_g, c_e) of every qubit at n = <n>, each of shape (N,) + shape(t).

    The semiclassical model behind branch_amplitudes, branch_states and
    coherence_factor, the oracle of acceptance criteria 4 and 5.
    """
    t = _nonnegative_times(t)
    per_qubit = (-1,) + (1,) * t.ndim
    return _fock_rabi_amplitudes(
        spec.n_mean,
        np.reshape(spec.couplings, per_qubit),
        np.reshape(spec.detunings, per_qubit),
        t,
    )


def branch_amplitudes(k: int, t: float, spec: ReservoirSpec) -> BranchAmplitudes:
    """Semiclassical amplitudes of qubit k inside the |alpha> branch.

    An oracle of acceptance criteria 4 and 5; no CLI path calls it.
    The photon-resolved kernel at n = <n>:
    c_g = cos(Omega_k t/2) + i (delta_k/Omega_k) sin(Omega_k t/2)
    c_e = -i (sqrt(<n>) lambda_k / Omega_k) sin(Omega_k t/2)
    """
    c_g, c_e = _semiclassical_amplitudes(t, spec)
    omega = _rabi_rate(spec.n_mean, spec.couplings[k], spec.detunings[k])[0]
    return BranchAmplitudes(complex(c_g[k]), complex(c_e[k]), float(omega))


def branch_states(t: float, spec: ReservoirSpec) -> list[DensityMatrix]:
    """Pure 2x2 state |c_g, c_e> of each qubit in the semiclassical |alpha> branch.

    The oracle of acceptance criterion 5; no CLI path calls it.
    """
    vecs = np.stack(_semiclassical_amplitudes(t, spec), axis=-1)
    return [
        DensityMatrix(SpaceLayout((2,)), np.outer(vec, vec.conj())) for vec in vecs
    ]


def _cat_amplitudes(alpha: complex, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Fock amplitudes of the ideal cat N+(|0> + |alpha>) and of |alpha>, at `cutoff`.

    Both come from one coherent_state call, so a truncated |alpha> warns once.
    """
    coh = coherent_state(alpha, cutoff).amps
    cat = coh.copy()
    cat[0] += 1.0
    cat /= np.linalg.norm(cat)
    return cat, coh


def cat_with_ground_qubits(alpha: complex, spec: ReservoirSpec, cutoff: int) -> StateVector:
    """Initial state N+(|0> + |alpha>) (x) |g...g> on the dynamics layout."""
    layout = _layout(spec, cutoff)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[:: 2**spec.n_qubits] = _cat_amplitudes(alpha, cutoff)[0]  # qubits all in |g>
    return StateVector(layout, amps)


def _warn_if_strained(leak: float, n_mean: float) -> None:
    """Warn when the excitation leaked to the qubits is not small against <n>."""
    if n_mean > 0 and leak > _STRAIN_SHARE * n_mean:
        warnings.warn(
            f"qubit excitation {leak:.3f} exceeds {_STRAIN_SHARE:.0%} of <n>={n_mean:.2f}; "
            "the branch model is strained",
            UserWarning,
        )


def _warn_once_if_strained(leaks: np.ndarray, n_mean: float) -> None:
    """One warning for all the times of a grid that _warn_if_strained flags.

    `leaks` holds one leak per time, in order.  The warning gives how
    many of them strain the model, and the first, last and largest of
    those leaks.
    """
    if n_mean <= 0:
        return
    strained = leaks[leaks > _STRAIN_SHARE * n_mean]
    if strained.size:
        warnings.warn(
            f"qubit excitation exceeds {_STRAIN_SHARE:.0%} of <n>={n_mean:.2f} at "
            f"{strained.size} of {leaks.size} times (first {strained[0]:.3f}, "
            f"last {strained[-1]:.3f}, largest {strained.max():.3f}); "
            "the branch model is strained",
            UserWarning,
        )


def analytic_joint_state(
    t: float, alpha: complex, spec: ReservoirSpec, cutoff: int
) -> StateVector:
    """Branch-model joint state of field and reservoir, resolved by photon number.

    Each Fock component |n> of the ideal cat drives every qubit k at
    its own Rabi rate Omega_k(n) = sqrt(n lambda_k^2 + delta_k^2) and
    picks up the phase exp(-i delta_k t/2).  At n = 0, Omega_k(0) =
    |delta_k| and c_g,k(0) exp(-i delta_k t/2) = 1, so the map leaves
    |0, G> fixed and the vacuum branch needs no term of its own.  A
    qubit pattern b with |b| excited qubits took |b| photons, so its
    amplitude sits at field level n - |b| (the photon shift); patterns
    with |b| > n are dropped.  The state is normalized numerically.

    Exact at N = 1.  For N >= 2 it is approximate: each qubit sees the
    rate of the initial photon number, ignoring that a photon taken by
    one qubit lowers the rate the others see.  Linearizing sqrt(n)
    about <n> recovers the back-action field rotation
    lambda_k^2 / (4 Omega_k).  Warns when the excitation leaked to the
    qubits is no longer small against <n>.
    """
    _nonnegative_times(t)
    layout = _layout(spec, cutoff)
    n_q = spec.n_qubits
    # n_q zero rows past the cutoff let the photon shift read zeros
    rows = cutoff + n_q
    cat, coh = (np.append(a, np.zeros(n_q)) for a in _cat_amplitudes(alpha, cutoff))
    c_g, c_e = _fock_rabi_amplitudes(
        np.arange(rows, dtype=float),
        np.asarray(spec.couplings)[:, None],
        np.asarray(spec.detunings)[:, None],
        t,
    )
    _warn_if_strained(float(np.sum(np.abs(c_e) ** 2 @ np.abs(coh) ** 2)), spec.n_mean)
    # (rows, 2^N) amplitudes of |n> (x) |b>; qubits are prepended from the
    # last, so qubit 0 ends up the slowest index and the inner loops long
    branch = (np.exp(-0.5j * sum(spec.detunings) * t) * cat)[:, None]
    for pair in np.stack([c_g, c_e], axis=-1)[::-1]:
        branch = (pair[:, :, None] * branch[:, None, :]).reshape(rows, -1)
    # photon shift: pattern b moves from level n to n - |b|
    width = 2**n_q
    excited = _popcounts(n_q)  # |b| of each column
    src = (np.arange(cutoff)[:, None] + excited) * width + np.arange(width)
    amps = branch.ravel().take(src.ravel())
    # an elementwise sum, not a BLAS dot, so no thread count moves the digits
    amps /= np.sqrt(np.sum(amps.real**2 + amps.imag**2))
    return StateVector(layout, amps)


def _coefficient_sums(w_g: np.ndarray, w_e: np.ndarray) -> np.ndarray:
    """upto[j] = the sum of the coefficients of z^0..z^(j-1) of prod_k (w_g,k + z w_e,k).

    The product runs over the leading axis of w_g and w_e; upto has
    that length plus two along its own leading axis.
    """
    upto = np.zeros((len(w_g) + 2,) + w_g.shape[1:], dtype=w_g.dtype)
    poly = upto[1:]  # coefficients of z^0.., built in place one qubit at a time
    poly[0] = 1.0
    for k, (wg, we) in enumerate(zip(w_g, w_e)):
        raised = poly[: k + 1] * we
        poly[: k + 1] *= wg
        poly[1 : k + 2] += raised
    np.cumsum(poly, axis=0, out=poly)
    return upto


def analytic_qubit_states(
    dt: float, n_times: int, alpha: complex, spec: ReservoirSpec, cutoff: int
) -> tuple[np.ndarray, np.ndarray]:
    """Qubit 0's reduced state and |coh| of analytic_joint_state at t_j = j dt, j < n_times.

    Returns (states, coh_abs) of shapes (n_times, 2, 2) and (n_times,).
    coh_abs is the cross-branch coherence factor: in the |alpha> branch
    the qubits stay in |G> = |g...g> with amplitude coh_n prod_k
    c_g,k(n) at level n, coh_n the Fock amplitude of |alpha>, so

        |coh|^2 = sum_n |coh_n|^2 prod_k |c_g,k(n)|^2 / sum_n |coh_n|^2
                = 1 - sum_n |coh_n|^2 (1 - prod_k |c_g,k(n)|^2) / sum_n |coh_n|^2,

    taken in the second form, whose sum is exactly 0 at t = 0 in any
    summation order, so |coh| = 1 there.  The 2^N joint state is never formed.
    Its amplitude at field level m for pattern b is phi cat_n prod_k
    p_k(n, b_k) with n = m + |b|, where cat_n is the ideal cat's Fock
    amplitude, p_k(n, 0) = c_g,k(n), p_k(n, 1) = c_e,k(n) and phi =
    exp(-i sum_k delta_k t/2) is a global phase.  The vacuum branch
    |0, G> is the level n = 0, where c_e,k(0) = 0.  Contracting qubits
    1..N-1 and the field needs only E_n[w_g, w_e], the sum of the
    coefficients of z^0..z^n of prod_{k>=1} (w_g,k + z w_e,k), i.e. the
    sum over patterns b' of the other qubits with |b'| <= n:

        rho_00 = sum_n |cat_n c_g0(n)|^2 E_n[|c_g(n)|^2, |c_e(n)|^2]
        rho_11 = sum_n |cat_n c_e0(n)|^2 E_(n-1)[|c_g(n)|^2, |c_e(n)|^2]
        rho_01 = sum_n cat_n c_g0(n) (cat_(n+1) c_e0(n+1))^*
                 E_n[c_g(n) c_g(n+1)^*, c_e(n) c_e(n+1)^*]

    and the trace normalizes.

    The truncation |b'| <= n binds only below n = N - 1: a pattern of
    the N - 1 other qubits has at most N - 1 excitations, so for
    n >= N - 1 the sum E_n takes every coefficient and is the plain
    product prod_{k>=1} (w_g,k + w_e,k), and so is E_(n-1) for n >= N.
    On the diagonal that product is 1, since |c_g|^2 + |c_e|^2 = 1 for
    each qubit (hilbert._exchange_step is unitary to rounding), so those
    levels take E = 1 and form no product; the cross product is formed
    on every level.  The z-polynomial is formed on the first
    min(N, cutoff) levels only, and the cost is O(T (cutoff N + N^3)),
    not O(T cutoff N^2).

    With s = sin(Omega t/2)/Omega, c_g = cos(Omega t/2) + i delta s and
    c_e = -i sqrt(n) lambda s (hilbert._fock_rabi_amplitudes), so

        |c_g(n)|^2 = cos^2 + (delta s)^2,   |c_e(n)|^2 = n lambda^2 s^2,
        c_g(n) c_g(n+1)^* + c_e(n) c_e(n+1)^* = xr + i xi,
        xr = cos_n cos_(n+1) + (delta^2 + sqrt(n (n+1)) lambda^2) s_n s_(n+1),
        xi = delta (s_n cos_(n+1) - cos_n s_(n+1)).

    Omega, 1/Omega, sqrt(n) lambda and the weight of s_n s_(n+1) do not
    depend on t and are built once.  The grid is taken in chunks of
    _TIME_CHUNK times.  On a grid the phases need few sines: (cos, s)
    at the offsets a dt, a < _TIME_CHUNK, are one table built once, the
    chunk's first time t0 is evaluated directly (hilbert._exchange_step
    both times, so Omega = 0 keeps its limit s = t/2), and every time
    t0 + a dt of the chunk follows by angle addition,

        cos(t0 + a dt) = cos(t0) cos(a dt) - Omega^2 s(t0) s(a dt),
        s(t0 + a dt) = s(t0) cos(a dt) + cos(t0) s(a dt),

    at four products per qubit, level and time.  That takes
    N (cutoff + 1) (_TIME_CHUNK + n_times / _TIME_CHUNK) sines and as
    many cosines, not N (cutoff + 1) n_times, and the direct value at
    each chunk's start keeps rounding from building up along the grid.
    The weights above are then real; complex numbers enter only in the
    product of xr + i xi over the qubits, in the truncated sums on the
    binding levels and in rho_01.  The chunk's arrays are buffers built
    once and filled in place.  No BLAS call is made, so no thread count
    moves the digits.  The |c_g|^2 above give |coh| too, one product
    over the qubits per chunk.  One "strained" warning
    (_warn_once_if_strained) covers all the times that
    analytic_joint_state would warn for.
    """
    dt = float(_nonnegative_times(dt))
    n_times = operator.index(n_times)
    if n_times < 0:
        raise ValueError(f"n_times must be nonnegative, got {n_times}")
    # a zero at level cutoff, so that the n + 1 terms read a zero; the
    # leak to the qubits and |coh| are those of the |alpha> branch alone
    cat, coh = (np.append(a, 0.0)[:, None] for a in _cat_amplitudes(alpha, cutoff))
    pop, coh_pop = np.abs(cat) ** 2, np.abs(coh) ** 2
    cross = cat[:-1] * cat[1:].conj()
    # (N, cutoff + 1, 1) time-independent parts of every qubit and level
    n = np.arange(cutoff + 1, dtype=float)[:, None]
    lam = np.asarray(spec.couplings)[:, None, None]
    delta = np.asarray(spec.detunings)[:, None, None]
    omega, inv_omega = _rabi_rate(n, lam, delta)
    omega_sq = omega**2
    rate_e = np.sqrt(n) * lam
    # the weight of s_n s_(n+1) in xr, for qubits 1..N-1
    cross_weight = (delta**2 + np.sqrt(n[:-1] * n[1:]) * lam**2)[1:]
    # levels where the truncation binds: E_n below N - 1, E_(n-1) up to it
    b, bp = min(spec.n_qubits - 1, cutoff), min(spec.n_qubits, cutoff)
    binds, binds_prev = np.arange(b), np.arange(bp)
    # (N, cutoff + 1, chunk) cos and s at the offsets a dt within a chunk
    step_cos, step_sin = _exchange_step(
        omega, inv_omega, dt * np.arange(min(n_times, _TIME_CHUNK))
    )
    buffers = np.empty((7,) + step_cos.shape)
    # qubits 1..N-1, (N - 1, cutoff, chunk): xr + i xi between n and n + 1
    x_buffer = np.empty((spec.n_qubits - 1, cutoff, step_cos.shape[-1]), dtype=complex)
    states = np.empty((n_times, 2, 2), dtype=complex)
    leaks, lost = np.empty(n_times), np.empty(n_times)
    for start in range(0, n_times, _TIME_CHUNK):
        size = min(_TIME_CHUNK, n_times - start)
        # c_g = cos + i im_g and c_e = -i im_e
        cos, sin, im_g, im_e, d_g, d_e, scratch = buffers[..., :size]
        # the chunk's first time t0 directly, then t0 + a dt by angle addition
        cos0, sin0 = _exchange_step(omega, inv_omega, start * dt)
        np.multiply(cos0, step_cos[..., :size], out=cos)
        np.multiply(omega_sq * sin0, step_sin[..., :size], out=scratch)
        cos -= scratch
        np.multiply(sin0, step_cos[..., :size], out=sin)
        np.multiply(cos0, step_sin[..., :size], out=scratch)
        sin += scratch
        np.multiply(delta, sin, out=im_g)
        np.multiply(rate_e, sin, out=im_e)
        np.multiply(cos, cos, out=d_g)
        np.multiply(im_g, im_g, out=scratch)
        d_g += scratch
        np.multiply(im_e, im_e, out=d_e)
        leaks[start : start + size] = np.sum(d_e.sum(axis=0) * coh_pop, axis=0)
        lost[start : start + size] = np.sum((1.0 - np.prod(d_g, axis=0)) * coh_pop, axis=0)
        # xr into x.real and xi into x.imag, in place
        c, s, part = cos[1:], sin[1:], scratch[1:, :-1]
        x = x_buffer[..., :size]
        np.multiply(c[:, :-1], c[:, 1:], out=x.real)
        np.multiply(s[:, :-1], s[:, 1:], out=part)
        part *= cross_weight
        x.real += part
        np.multiply(s[:, :-1], c[:, 1:], out=x.imag)
        np.multiply(c[:, :-1], s[:, 1:], out=part)
        x.imag -= part
        x.imag *= delta[1:]
        e_cross = np.prod(x, axis=0)
        # the truncated sums on the binding levels
        upto = _coefficient_sums(d_g[1:, :bp], d_e[1:, :bp])
        g = c[:, : b + 1] + 1j * im_g[1:, : b + 1]
        e = im_e[1:, : b + 1]
        upto_cross = _coefficient_sums(g[:, :-1] * g[:, 1:].conj(), e[:, :-1] * e[:, 1:])
        e_cross[:b] = upto_cross[binds + 1, binds]
        # qubit 0, (cutoff, chunk); above the binding levels E_n = E_(n-1) = 1
        w00 = pop[:-1] * d_g[0, :-1]
        w00[:b] *= upto[binds + 1, binds]
        w11 = pop[:-1] * d_e[0, :-1]
        w11[:bp] *= upto[binds_prev, binds_prev]
        # c_g0(n) c_e0(n+1)^* = im_e(n+1) (i cos(n) - im_g(n))
        w01 = cross * e_cross * im_e[0, 1:] * (1j * cos[0, :-1] - im_g[0, :-1])
        rho00, rho11 = w00.sum(axis=0), w11.sum(axis=0)
        trace = rho00 + rho11
        block = states[start : start + size]
        block[:, 0, 0] = rho00 / trace
        block[:, 1, 1] = rho11 / trace
        block[:, 0, 1] = w01.sum(axis=0) / trace
        block[:, 1, 0] = block[:, 0, 1].conj()
    _warn_once_if_strained(leaks, spec.n_mean)
    # the clip keeps a |coh| that rounding takes below 0 finite
    coh_abs = np.sqrt(np.maximum(0.0, 1.0 - lost / np.sum(coh_pop)))
    return states, coh_abs


def coherence_factor(t, spec: ReservoirSpec):
    """Semiclassical which-path attenuation prod_k c_k^g(t) of the |alpha><0| block.

    Every photon number sits at n = <n>.  The oracle of acceptance
    criterion 4; ``catbath decohere`` writes the photon-resolved |coh|
    of analytic_qubit_states instead.  A scalar t gives a complex; an
    array of times gives an array of their factors.
    """
    coh = np.prod(_semiclassical_amplitudes(t, spec)[0], axis=0)
    return complex(coh) if coh.ndim == 0 else coh


def _popcounts(n_qubits: int) -> np.ndarray:
    """sum_k |e><e|_k of each qubit pattern b = 0 .. 2^N - 1: popcount(b)."""
    return np.sum((np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits)) & 1, axis=1)


@functools.lru_cache(maxsize=1)
def _reservoir_operator(spec: ReservoirSpec, cutoff: int):
    """(patterns, operator): H on the (pattern x photon) grids of hilbert._chebyshev_operator.

    The halves are the qubit patterns b of even and of odd parity,
    patterns (2, 2^(N-1)), each in increasing order: patterns 2j and
    2j + 1 differ in their last bit only, so one of each pair has each
    parity, and pattern b sits at position b >> 1 of its half's list.
    Row (p, n + 1) of half h holds |n> (x) |b>, b = patterns[h, p], for
    0 <= n < cutoff; columns 0 and cutoff + 1 are pads, no basis state.
    Qubit 0 is the highest bit of b.  If qubit k is excited, |n, b>
    couples to |n+1, b without k> at lambda_k/2 sqrt(n+1), and delta_k
    adds to the diagonal.  Each exchange term flips one qubit, so qubit
    k's partners of the whole photon row of b lie in the photon row of
    b ^ bit_k, in the other half at position (b ^ bit_k) >> 1: one
    photon up where qubit k is excited in b, one down where it is not.
    So straight from the bits,

        start = ((b ^ bit_k) >> 1)(cutoff + 2) + 2 up,
        amp = lambda_k/2 root[up],

    up = 1 where qubit k is excited, and root[0] = sqrt(n), root[1] =
    sqrt(n + 1) along the columns, zero on the pads and at n = cutoff - 1
    going up, where no partner exists (at n = 0 going down, sqrt(n) is
    0).  The shift of one column and the buffer's leading zero give
    the 2 up.  The operator of the last (spec, cutoff) is kept, about
    0.7 MiB at N = 8, cutoff 40, so a repeated call on one Hamiltonian
    skips the build.
    """
    pairs = _popcounts(spec.n_qubits - 1)  # popcount of j
    patterns = 2 * np.arange(pairs.size) + (pairs + np.array([[0], [1]])) % 2
    width = cutoff + 2
    shift = np.arange(spec.n_qubits - 1, -1, -1)[:, None]  # of qubit k's bit in b
    up = (patterns[:, None, :] >> shift) & 1  # (2, N, P)
    start = ((patterns[:, None, :] ^ (1 << shift)) >> 1) * width + 2 * up
    root = np.zeros((2, width))
    root[0, 1:-1] = np.sqrt(np.arange(cutoff))
    root[1, 1:-2] = root[0, 2:-1]
    # (N, 2, width) lambda_k/2 root, one gather of whole photon rows
    scaled = np.asarray(spec.couplings)[:, None, None] / 2.0 * root
    amp = scaled[np.arange(spec.n_qubits)[:, None], up]
    diag = np.einsum("hkp,k->hp", up, np.asarray(spec.detunings))
    return patterns, _chebyshev_operator(diag, start, amp)


def evolve_excitation_blocks(
    spec: ReservoirSpec, psi: StateVector, t: float, cutoff: int
) -> StateVector:
    """Exact propagation exp(-iHt) psi of the reservoir Hamiltonian.

    H never couples two total excitation numbers m = a^dag a + sum_k
    |e><e|_k, so a level where psi is zero stays exactly zero, and the
    population of each level is conserved without splitting the state
    into blocks.  psi is copied onto the (pattern x photon) grids of
    _reservoir_operator, one per qubit parity, where H is one window
    table per qubit (at most N couplings per row); it is real, and
    hilbert._chebyshev_propagate applies it in about r|t| terms, r the
    half-width of the Gershgorin bound on the spectrum of the whole
    table.  Every state runs the same series: the cat (x) |G> and its
    |alpha> branch occupy the row |cutoff - 1, G>, whose radius
    sum_k lambda_k/2 sqrt(cutoff - 1) is already the largest, while a
    state confined to low levels gets no shorter series.  A zero state
    returns zeros.  Each term is one gather of whole photon rows and one
    weighted sum per nonzero part (real, imaginary) of the state: at
    delta = 0 on one grid per grid the part occupies (the cat (x) |G>
    occupies one), and otherwise on both (see
    hilbert._chebyshev_operator).  The operator of the last call is
    kept, so a call with the same spec and cutoff skips the build.  t
    may be negative; it must be finite, and so must every amplitude of
    psi: a non-finite one is an error that names its index, raised
    before any build.
    """
    _require_finite(t)
    layout = _layout(spec, cutoff)
    if psi.layout != layout:
        raise ValueError("state layout does not match the reservoir layout")
    bad = np.flatnonzero(~np.isfinite(psi.amps))
    if bad.size:
        raise ValueError(f"psi must be finite: amplitude {bad[0]} is {psi.amps[bad[0]]}")
    patterns, operator = _reservoir_operator(spec, cutoff)
    grid = np.zeros(patterns.shape + (cutoff + 2,), dtype=complex)
    grid[..., 1:-1] = np.moveaxis(psi.amps.reshape(cutoff, -1)[:, patterns], 0, -1)
    grid = _chebyshev_propagate(operator, t, grid)
    out = np.zeros(layout.dim, dtype=complex)
    out.reshape(cutoff, -1)[:, patterns] = np.moveaxis(grid[..., 1:-1], -1, 0)
    return StateVector(layout, out)


def reduced_qubit_state(psi: StateVector, k: int) -> DensityMatrix:
    """Reduced 2x2 state of reservoir qubit k (factor k+1 of the layout)."""
    return _reduced(psi, k + 1)


def reduced_field_state(psi: StateVector) -> DensityMatrix:
    """Reduced field-mode state (factor 0 of the layout)."""
    return _reduced(psi, 0)


def _reduced(psi: StateVector, factor: int) -> DensityMatrix:
    """Reduced state of one factor, contracted from the state vector.

    Avoids the full density matrix (prohibitive at N = 8, cutoff 40).
    """
    dims = psi.layout.dims
    tensor = psi.amps.reshape(int(np.prod(dims[:factor])), dims[factor], -1)
    # einsum, not @: threaded BLAS would make the digits depend on the thread count
    mat = np.einsum("aib,ajb->ij", tensor, tensor.conj())
    return DensityMatrix(SpaceLayout((dims[factor],)), mat)
