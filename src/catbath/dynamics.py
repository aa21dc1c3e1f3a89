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
  others see.  analytic_qubit_states gives qubit 0's reduced state of
  this model over a whole time grid in closed form, without forming
  the 2^N branch.
- branch_amplitudes, branch_states and coherence_factor are the
  n = <n> case: the field is a classical drive of Rabi frequency
  Omega_k = sqrt(<n> lambda_k^2 + delta_k^2).

Exact propagation is the reference for both.  evolve_excitation_blocks
applies the sparse Hamiltonian by a Chebyshev series at any register
size.  It builds the Hamiltonian only on the excitation levels the
state occupies, since H never leaves a level, and keeps the operator
of its last call, so a repeated call on the same Hamiltonian and
levels costs the series alone.  The dense reservoir_hamiltonian with
hilbert.evolve is kept as the test oracle for small registers.

Dynamics layouts are boson (x) qubits, boson first (factor 0).
"""

from __future__ import annotations

import functools
import math
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
    _fock_rabi_amplitudes,
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
# analytic_qubit_states evaluates this many times per array pass.  At
# N = 8, cutoff 40, 401 times, on a 2-vCPU Xeon VM with one BLAS thread,
# the kernel takes about 10 ms with a chunk of 32, 12 ms with 16 and
# 10-14 ms with 64; a decohere run peaks at 61.9 MiB of RSS with 32,
# 61.1 MiB with 16 and 63.5 MiB with 64
_TIME_CHUNK = 32


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

    @property
    def n_qubits(self) -> int:
        return len(self.couplings)


@dataclass(frozen=True)
class BranchAmplitudes:
    """Qubit amplitudes (c_g, c_e) of the |alpha> branch and Rabi rate Omega_k."""

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
    """(c_g, c_e) of every qubit at n = <n>, each of shape (N,) + shape(t)."""
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

    The photon-resolved kernel at n = <n>:
    c_g = cos(Omega_k t/2) + i (delta_k/Omega_k) sin(Omega_k t/2)
    c_e = -i (sqrt(<n>) lambda_k / Omega_k) sin(Omega_k t/2)
    """
    c_g, c_e = _semiclassical_amplitudes(t, spec)
    omega = math.sqrt(spec.n_mean * spec.couplings[k] ** 2 + spec.detunings[k] ** 2)
    return BranchAmplitudes(complex(c_g[k]), complex(c_e[k]), omega)


def branch_states(t: float, spec: ReservoirSpec) -> list[DensityMatrix]:
    """Pure 2x2 state |c_g, c_e> of each qubit in the semiclassical |alpha> branch."""
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
    if n_mean > 0 and leak > 0.1 * n_mean:
        warnings.warn(
            f"qubit excitation {leak:.3f} exceeds 10% of <n>={n_mean:.2f}; "
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
    excited = np.zeros(1, dtype=int)  # |b| of each column
    for pair in np.stack([c_g, c_e], axis=-1)[::-1]:
        branch = (pair[:, :, None] * branch[:, None, :]).reshape(rows, -1)
        excited = np.concatenate([excited, excited + 1])
    # photon shift: pattern b moves from level n to n - |b|
    width = 2**n_q
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


def analytic_qubit_states(times, alpha: complex, spec: ReservoirSpec, cutoff: int) -> np.ndarray:
    """Qubit 0's reduced state of analytic_joint_state at each time, shape (T, 2, 2).

    The 2^N joint state is never formed.  Its amplitude at field level
    m for pattern b is phi cat_n prod_k p_k(n, b_k) with n = m + |b|,
    where cat_n is the ideal cat's Fock amplitude, p_k(n, 0) = c_g,k(n),
    p_k(n, 1) = c_e,k(n) and phi = exp(-i sum_k delta_k t/2) is a global
    phase.  The vacuum branch |0, G> is the level n = 0, where c_e,k(0)
    = 0.  Contracting qubits 1..N-1 and the field needs only
    E_n[w_g, w_e], the sum of the coefficients of z^0..z^n of
    prod_{k>=1} (w_g,k + z w_e,k), i.e. the sum over patterns b' of the
    other qubits with |b'| <= n:

        rho_00 = sum_n |cat_n c_g0(n)|^2 E_n[|c_g(n)|^2, |c_e(n)|^2]
        rho_11 = sum_n |cat_n c_e0(n)|^2 E_(n-1)[|c_g(n)|^2, |c_e(n)|^2]
        rho_01 = sum_n cat_n c_g0(n) (cat_(n+1) c_e0(n+1))^*
                 E_n[c_g(n) c_g(n+1)^*, c_e(n) c_e(n+1)^*]

    and the trace normalizes.

    The truncation |b'| <= n binds only below n = N - 1: a pattern of
    the N - 1 other qubits has at most N - 1 excitations, so for
    n >= N - 1 the sum E_n takes every coefficient and is the plain
    product prod_{k>=1} (w_g,k + w_e,k), and so is E_(n-1) for n >= N.
    The z-polynomial is therefore formed on the first min(N, cutoff)
    levels only, and the product, kept even where it is 1 in exact
    arithmetic, serves every level above.  The cost is
    O(T (cutoff N + N^3)), not O(T cutoff N^2).  The diagonal weights
    are real and run in real arithmetic; only the cross pair is
    complex.  Times are taken in chunks of _TIME_CHUNK; the "strained"
    warning of analytic_joint_state is issued afterwards for each time
    in order.
    """
    times = _nonnegative_times(times)
    # a zero at level cutoff, so that the n + 1 terms read a zero; the
    # leak to the qubits is that of the |alpha> branch alone
    cat, coh = (np.append(a, 0.0)[:, None] for a in _cat_amplitudes(alpha, cutoff))
    pop, coh_pop = np.abs(cat) ** 2, np.abs(coh) ** 2
    cross = cat[:-1] * cat[1:].conj()
    levels = np.arange(cutoff + 1, dtype=float)[:, None]
    lam = np.asarray(spec.couplings)[:, None, None]
    delta = np.asarray(spec.detunings)[:, None, None]
    n_other = spec.n_qubits - 1
    # levels where the truncation binds: E_n below n_other, E_(n-1) up to it
    binds = np.arange(min(n_other, cutoff))
    binds_prev = np.arange(min(n_other + 1, cutoff))
    states = np.empty((times.size, 2, 2), dtype=complex)
    leaks = np.empty(times.size)
    for start in range(0, times.size, _TIME_CHUNK):
        t = times[start : start + _TIME_CHUNK]
        # (N, cutoff + 1, chunk) amplitudes of every qubit, level and time
        c_g, c_e = _fock_rabi_amplitudes(levels, lam, delta, t)
        leaks[start : start + t.size] = np.sum(np.abs(c_e) ** 2 * coh_pop, axis=(0, 1))
        # weights of qubits 1..N-1, (N-1, cutoff, chunk): the diagonal
        # pair at n, and the cross pair between n and n + 1
        g, e = c_g[1:], c_e[1:]
        d_g, d_e = np.abs(g[:, :-1]) ** 2, np.abs(e[:, :-1]) ** 2
        x_g, x_e = g[:, :-1] * g[:, 1:].conj(), e[:, :-1] * e[:, 1:].conj()
        e_diag = np.prod(d_g + d_e, axis=0)  # (cutoff, chunk)
        e_prev = e_diag.copy()
        e_cross = np.prod(x_g + x_e, axis=0)
        upto = _coefficient_sums(d_g[:, : binds_prev.size], d_e[:, : binds_prev.size])
        e_diag[binds] = upto[binds + 1, binds]
        e_prev[binds_prev] = upto[binds_prev, binds_prev]
        upto = _coefficient_sums(x_g[:, : binds.size], x_e[:, : binds.size])
        e_cross[binds] = upto[binds + 1, binds]
        g0, e0 = c_g[0], c_e[0]
        rho00 = np.sum(pop[:-1] * np.abs(g0[:-1]) ** 2 * e_diag, axis=0)
        rho11 = np.sum(pop[:-1] * np.abs(e0[:-1]) ** 2 * e_prev, axis=0)
        rho01 = np.sum(cross * g0[:-1] * e0[1:].conj() * e_cross, axis=0)
        trace = rho00 + rho11
        block = states[start : start + t.size]
        block[:, 0, 0] = rho00 / trace
        block[:, 1, 1] = rho11 / trace
        block[:, 0, 1] = rho01 / trace
        block[:, 1, 0] = block[:, 0, 1].conj()
    for leak in leaks:
        _warn_if_strained(float(leak), spec.n_mean)
    return states


def coherence_factor(t, spec: ReservoirSpec):
    """Which-path attenuation prod_k c_k^g(t) of the |alpha><0| block.

    A scalar t gives a complex; an array of times gives an array of
    their factors.
    """
    coh = np.prod(_semiclassical_amplitudes(t, spec)[0], axis=0)
    return complex(coh) if coh.ndim == 0 else coh


def _excitation_numbers(n_qubits: int, cutoff: int) -> np.ndarray:
    """a^dag a + sum_k |e><e|_k of each basis index n 2^N + b: n + popcount(b)."""
    popcount = np.zeros(1, dtype=int)
    for _ in range(n_qubits):
        popcount = np.concatenate([popcount, popcount + 1])
    return (np.arange(cutoff)[:, None] + popcount).ravel()


def _exchange_terms(spec: ReservoirSpec, cutoff: int, rows: np.ndarray):
    """(diag, src, dst, amp) of H on the basis indices `rows`, as positions in `rows`.

    Basis index n 2^N + b holds |n> (x) |b>, qubit 0 the highest bit of
    b.  If qubit k is excited, |n, b> couples to |n+1, b without k> at
    lambda_k/2 sqrt(n+1), and delta_k adds to the diagonal.  `rows`
    must be sorted, nonempty and hold whole excitation levels, so that
    every partner of a row is itself in `rows`.
    """
    n_q = spec.n_qubits
    width = 2**n_q
    photons, pattern = np.divmod(rows, width)
    qubit_bit = 1 << np.arange(n_q - 1, -1, -1)  # bit of qubit k in b
    excited = (pattern[:, None] & qubit_bit) > 0
    diag = excited @ np.asarray(spec.detunings)
    # a^dag |g><e|_k: photon up, qubit k down
    src, k = np.nonzero(excited & (photons[:, None] + 1 < cutoff))
    position = np.empty(rows[-1] + 1, dtype=int)  # of each basis index in rows
    position[rows] = np.arange(rows.size)
    dst = position[rows[src] + width - qubit_bit[k]]
    amp = np.asarray(spec.couplings)[k] / 2.0 * np.sqrt(photons[src] + 1.0)
    return diag, src, dst, amp


@functools.lru_cache(maxsize=1)
def _level_operator(spec: ReservoirSpec, cutoff: int, occupied: bytes):
    """(rows, (c, r, 2H~)): H on the excitation levels flagged in `occupied`.

    `occupied` holds one bool per level m = 0 .. cutoff + N - 1.  The
    operator of the last (spec, cutoff, occupied) is kept, about 1 MiB
    at N = 8, cutoff 40, so a repeated call on one Hamiltonian and one
    set of levels skips the build.
    """
    levels = np.frombuffer(occupied, dtype=bool)
    rows = np.flatnonzero(levels[_excitation_numbers(spec.n_qubits, cutoff)])
    return rows, _chebyshev_operator(*_exchange_terms(spec, cutoff, rows))


def evolve_excitation_blocks(
    spec: ReservoirSpec, psi: StateVector, t: float, cutoff: int
) -> StateVector:
    """Exact propagation exp(-iHt) psi of the sparse reservoir Hamiltonian.

    H never couples two total excitation numbers m = a^dag a +
    sum_k |e><e|_k, so a level where psi is zero stays exactly zero,
    and the population of each level is conserved without splitting
    the state into blocks.  H is built by _exchange_terms on the rows
    of the levels psi occupies only, with at most N + 1 nonzeros per
    row; it is real, and hilbert._chebyshev_propagate applies it in
    about r|t| real sparse products per nonzero part (real, imaginary)
    of the state, r the half-width of the Gershgorin bound on the
    spectrum of those rows.  A state in low levels thus gets a short
    series, and a zero state returns zeros.  The operator of the last
    call is kept, so a call with the same spec, cutoff and occupied
    levels skips the build.  t may be negative; it must be finite.
    """
    _require_finite(t)
    layout = _layout(spec, cutoff)
    if psi.layout != layout:
        raise ValueError("state layout does not match the reservoir layout")
    excitation = _excitation_numbers(spec.n_qubits, cutoff)
    occupied = np.bincount(
        excitation[np.flatnonzero(psi.amps)], minlength=cutoff + spec.n_qubits
    ) > 0
    out = np.zeros(layout.dim, dtype=complex)
    if occupied.any():
        rows, operator = _level_operator(spec, cutoff, occupied.tobytes())
        out[rows] = _chebyshev_propagate(operator, t, psi.amps[rows])
    return StateVector(layout, out)


def reduced_qubit_state(psi: StateVector, k: int) -> DensityMatrix:
    """Reduced 2x2 state of reservoir qubit k (factor k+1 of the layout).

    Contracts the state vector directly, avoiding the full density
    matrix (prohibitive at N = 8, cutoff 40).
    """
    dims = psi.layout.dims
    pre = int(np.prod(dims[: k + 1]))
    post = int(np.prod(dims[k + 2 :]))
    tensor = psi.amps.reshape(pre, 2, post)
    mat = np.einsum("aib,ajb->ij", tensor, tensor.conj())
    return DensityMatrix(SpaceLayout((2,)), mat)


def reduced_field_state(psi: StateVector) -> DensityMatrix:
    """Reduced field-mode state, contracted from the state vector."""
    dims = psi.layout.dims
    tensor = psi.amps.reshape(dims[0], -1)
    # einsum, not @: threaded BLAS would make the digits depend on the thread count
    mat = np.einsum("ab,cb->ac", tensor, tensor.conj())
    return DensityMatrix(SpaceLayout((dims[0],)), mat)
