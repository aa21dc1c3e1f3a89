"""Cat-state decoherence in an N-qubit exchange reservoir.

The field mode couples to N qubits through resonant exchange terms
(lambda_k/2)(a |e><g|_k + a^dag |g><e|_k) plus per-qubit detunings.
An initial amplitude cat N+(|0> + |alpha>) splits into two branches:
the vacuum branch leaves the qubits in |g...g>, the |alpha> branch
drives collective Rabi oscillations.

Both analytic pictures of the |alpha> branch evaluate one Rabi kernel:
Fock component n drives qubit k at Omega_k(n) =
sqrt(n lambda_k^2 + delta_k^2).

- analytic_joint_state resolves the branch photon number by photon
  number, and each excited qubit shifts the field down by one photon.
  This carries the back-action on the field (Gea-Banacloche, PRL 65,
  3385, 1990).  It is exact at N = 1 and approximate for N >= 2, since
  it ignores that a photon taken by one qubit lowers the rate the
  others see.
- branch_amplitudes, branch_states and coherence_factor are the
  n = <n> case: the field is a classical drive of Rabi frequency
  Omega_k = sqrt(<n> lambda_k^2 + delta_k^2).

Exact propagation is the reference for both.  evolve_excitation_blocks
applies the sparse Hamiltonian by a Chebyshev series at any register
size; the dense reservoir_hamiltonian with hilbert.evolve is kept as
the test oracle for small registers.

Dynamics layouts are boson (x) qubits, boson first (factor 0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    DensityMatrix,
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    _chebyshev_propagate,
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
    "coherence_factor",
    "evolve_excitation_blocks",
    "cat_with_ground_qubits",
    "reduced_qubit_state",
    "reduced_field_state",
]

# the dense Hamiltonian, a small-register oracle, is refused above this
# dimension; evolve_excitation_blocks takes any size
MAX_DENSE_DIM = 4096


@dataclass(frozen=True)
class ReservoirSpec:
    """Exchange couplings lambda_k, detunings delta_k (rad/s), <n> = |alpha|^2."""

    couplings: tuple[float, ...]
    detunings: tuple[float, ...]
    n_mean: float

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(x) for x in self.couplings))
        object.__setattr__(self, "detunings", tuple(float(x) for x in self.detunings))
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
    a = annihilation(cutoff).mat
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


def _semiclassical_amplitudes(t, spec: ReservoirSpec) -> tuple[np.ndarray, np.ndarray]:
    """(c_g, c_e) of every qubit at n = <n>, each of shape (N,) + shape(t)."""
    t = np.asarray(t, dtype=float)
    _require_finite(t)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
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


def cat_with_ground_qubits(alpha: complex, spec: ReservoirSpec, cutoff: int) -> StateVector:
    """Initial state N+(|0> + |alpha>) (x) |g...g> on the dynamics layout."""
    layout = _layout(spec, cutoff)
    vac = np.zeros(cutoff, dtype=complex)
    vac[0] = 1.0
    cat = vac + coherent_state(alpha, cutoff).amps
    cat /= np.linalg.norm(cat)
    amps = np.zeros(layout.dim, dtype=complex)
    stride = 2 ** spec.n_qubits
    amps[::stride] = cat  # qubits all in |g> (fast indices all zero)
    return StateVector(layout, amps)


def _fock_rabi_amplitudes(n, lam, delta, t) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of |n,g> -> c_g |n,g> + c_e |n-1,e> under one exchange term.

    Omega(n) = sqrt(n lambda^2 + delta^2); the common phase
    exp(-i delta t/2) is left to the caller.  Arguments broadcast.
    sin(Omega t/2)/Omega is written as (t/2) sinc so that Omega = 0
    needs no special case.
    """
    omega = np.sqrt(n * lam**2 + delta**2)
    half = omega * t / 2.0
    sin_over_omega = (t / 2.0) * np.sinc(half / math.pi)
    c_g = np.cos(half) + 1j * delta * sin_over_omega
    c_e = -1j * np.sqrt(n) * lam * sin_over_omega
    return c_g, c_e


def analytic_joint_state(
    t: float, alpha: complex, spec: ReservoirSpec, cutoff: int
) -> StateVector:
    """Branch-model joint state of field and reservoir, resolved by photon number.

    Each Fock component |n> of the |alpha> branch drives every qubit k
    at its own Rabi rate Omega_k(n) = sqrt(n lambda_k^2 + delta_k^2) and
    picks up the phase exp(-i delta_k t/2) relative to the stationary
    vacuum branch.  A qubit pattern b with |b| excited qubits took |b|
    photons, so its amplitude sits at field level n - |b| (the photon
    shift); patterns with |b| > n are dropped.  The state is normalized
    numerically, which includes the |<0|alpha>| overlap.

    Exact at N = 1.  For N >= 2 it is approximate: each qubit sees the
    rate of the initial photon number, ignoring that a photon taken by
    one qubit lowers the rate the others see.  Linearizing sqrt(n)
    about <n> recovers the back-action field rotation
    lambda_k^2 / (4 Omega_k).  Warns when the excitation leaked to the
    qubits is no longer small against <n>.
    """
    _require_finite(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    layout = _layout(spec, cutoff)
    n_q = spec.n_qubits
    # n_q zero rows past the cutoff let the photon shift read zeros
    rows = cutoff + n_q
    coh = np.zeros(rows, dtype=complex)
    coh[:cutoff] = coherent_state(alpha, cutoff).amps
    c_g, c_e = _fock_rabi_amplitudes(
        np.arange(rows, dtype=float),
        np.asarray(spec.couplings)[:, None],
        np.asarray(spec.detunings)[:, None],
        t,
    )
    leak = float(np.sum(np.abs(c_e) ** 2 @ np.abs(coh) ** 2))
    if spec.n_mean > 0 and leak > 0.1 * spec.n_mean:
        warnings.warn(
            f"qubit excitation {leak:.3f} exceeds 10% of <n>={spec.n_mean:.2f}; "
            "the branch model is strained",
            UserWarning,
        )
    # (rows, 2^N) amplitudes of |n> (x) |b>; qubits are prepended from the
    # last, so qubit 0 ends up the slowest index and the inner loops long
    branch = (np.exp(-0.5j * sum(spec.detunings) * t) * coh)[:, None]
    excited = np.zeros(1, dtype=int)  # |b| of each column
    for pair in np.stack([c_g, c_e], axis=-1)[::-1]:
        branch = (pair[:, :, None] * branch[:, None, :]).reshape(rows, -1)
        excited = np.concatenate([excited, excited + 1])
    # photon shift: pattern b moves from level n to n - |b|
    width = 2**n_q
    src = (np.arange(cutoff)[:, None] + excited) * width + np.arange(width)
    amps = branch.ravel().take(src.ravel())
    amps[0] += 1.0  # vacuum branch |0> (x)_k |g>
    amps /= np.linalg.norm(amps)
    return StateVector(layout, amps)


def coherence_factor(t, spec: ReservoirSpec):
    """Which-path attenuation prod_k c_k^g(t) of the |alpha><0| block.

    A scalar t gives a complex; an array of times gives an array of
    their factors.
    """
    coh = np.prod(_semiclassical_amplitudes(t, spec)[0], axis=0)
    return complex(coh) if coh.ndim == 0 else coh


def evolve_excitation_blocks(
    spec: ReservoirSpec, psi: StateVector, t: float, cutoff: int
) -> StateVector:
    """Exact propagation exp(-iHt) psi of the sparse reservoir Hamiltonian.

    Basis index n 2^N + b holds |n> (x) |b>, qubit 0 the highest bit of
    b.  If qubit k is excited, |n, b> couples to |n+1, b without k> at
    lambda_k/2 sqrt(n+1).  H is assembled from these index relations,
    with at most N + 1 nonzeros per row, and applied to the state by
    hilbert._chebyshev_propagate in about r|t| sparse products, r the
    half-width of the Gershgorin bound on the spectrum.  H never couples
    two total excitation numbers a^dag a + sum_k |e><e|_k, so the
    population of each is conserved without splitting the state into
    blocks.  t may be negative; it must be finite.
    """
    _require_finite(t)
    layout = _layout(spec, cutoff)
    if psi.layout != layout:
        raise ValueError("state layout does not match the reservoir layout")
    n_q = spec.n_qubits
    width = 2**n_q
    photons, pattern = np.divmod(np.arange(layout.dim), width)
    qubit_bit = 1 << np.arange(n_q - 1, -1, -1)  # bit of qubit k in b
    excited = (pattern[:, None] & qubit_bit) > 0
    diag = excited @ np.asarray(spec.detunings)
    # a^dag |g><e|_k: photon up, qubit k down
    src, k = np.nonzero(excited & (photons[:, None] + 1 < cutoff))
    dst = src + width - qubit_bit[k]
    amp = np.asarray(spec.couplings)[k] / 2.0 * np.sqrt(photons[src] + 1.0)
    return StateVector(layout, _chebyshev_propagate(diag, src, dst, amp, t, psi.amps))


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
    return DensityMatrix(SpaceLayout((dims[0],)), tensor @ tensor.conj().T)
