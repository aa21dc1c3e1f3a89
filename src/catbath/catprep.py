"""Even phase-cat synthesis by sequential photon-number swaps.

The target is the even cat N+(|alpha/2> + |-alpha/2>), whose Fock
decomposition has only even photon numbers.  A backward-elimination
sweep over the n-excitation manifolds {|g,n>, |e,n-1>} chooses the
resonant swap angles that empty the target state into the vacuum; the
forward (laboratory) order of the same pulses then prepares the target
from |g,0>.  A final cavity displacement D(alpha/2) converts the phase
cat into the amplitude cat N+(|0> + |alpha>).

Protocol states live on a qubit (x) boson layout (qubit is factor 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    annihilation,
    displacement,
    evolve,
)

__all__ = [
    "CatSpec",
    "ProtocolStep",
    "cat_fock_amplitudes",
    "truncation_fidelity",
    "backward_angles",
    "apply_sequence",
    "make_amplitude_cat",
    "jc_hamiltonian",
    "x_pi",
]

_X_PI = np.array([[0.0, -1j], [-1j, 0.0]])  # exp(-i pi/2 sigma_x)
# amplitudes below this count as empty in backward_angles
_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class CatSpec:
    """Target cat parameters: full separation alpha and operational cutoff."""

    alpha: complex
    parity: str = "even"
    cutoff_star: int = 6

    def __post_init__(self):
        if self.parity != "even":
            raise ValueError("only even-parity cats are supported")
        if self.cutoff_star % 2 != 0:
            raise ValueError("cutoff_star must be even for an even-parity target")


@dataclass(frozen=True)
class ProtocolStep:
    """One manifold of the swap sequence: angle theta_n and duration t_n."""

    n: int
    theta: float  # rad
    t: float  # s


def cat_fock_amplitudes(spec: CatSpec, cutoff: int, renormalize: bool = False) -> np.ndarray:
    """Fock amplitudes of the even phase cat |C+(alpha/2)>.

    c_{2m} = N+ * 2 (alpha/2)^{2m} exp(-|alpha|^2/8) / sqrt((2m)!),
    odd entries zero.  With `renormalize` the truncated vector is scaled
    to unit norm (the protocol's target state).
    """
    if cutoff < spec.cutoff_star:
        raise ValueError(f"cutoff {cutoff} below operational cutoff {spec.cutoff_star}")
    alpha = complex(spec.alpha)
    norm_plus = (2.0 * (1.0 + math.exp(-abs(alpha) ** 2 / 2.0))) ** -0.5
    amps = np.zeros(cutoff + 1, dtype=complex)
    half = alpha / 2.0
    for m in range(0, cutoff // 2 + 1):
        amps[2 * m] = (
            norm_plus * 2.0 * half ** (2 * m) * math.exp(-abs(alpha) ** 2 / 8.0)
            / math.sqrt(math.factorial(2 * m))
        )
    if renormalize:
        amps = amps / np.linalg.norm(amps)
    return amps


def truncation_fidelity(spec: CatSpec) -> float:
    """Overlap F = sum_{n <= N*} |c_n|^2 of the ideal cat with its truncation."""
    return float(np.sum(np.abs(cat_fock_amplitudes(spec, spec.cutoff_star)) ** 2))


def jc_hamiltonian(xi: float, cutoff: int) -> OperatorMatrix:
    """Resonant exchange xi (a sigma+ + a^dag sigma-) on qubit (x) boson."""
    layout = SpaceLayout((2, cutoff))
    a = annihilation(cutoff).mat
    sig_p = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|
    term = xi * np.kron(sig_p, a)
    return OperatorMatrix(layout, term + term.conj().T)


def x_pi(layout: SpaceLayout) -> OperatorMatrix:
    """Global qubit flip exp(-i pi/2 sigma_x) on a qubit (x) boson layout."""
    return OperatorMatrix(layout, np.kron(_X_PI, np.eye(layout.dims[1])))


def _protocol_layout(spec: CatSpec) -> SpaceLayout:
    return SpaceLayout((2, spec.cutoff_star + 1))


def target_state(spec: CatSpec) -> StateVector:
    """|g> (x) truncated, renormalized phase cat on the protocol layout."""
    boson = cat_fock_amplitudes(spec, spec.cutoff_star, renormalize=True)
    amps = np.zeros(2 * (spec.cutoff_star + 1), dtype=complex)
    amps[: spec.cutoff_star + 1] = boson
    return StateVector(_protocol_layout(spec), amps)


def backward_angles(spec: CatSpec, xi: float) -> list[ProtocolStep]:
    """Swap angles that eliminate the target manifold by manifold.

    Sweeping n = N*..1 over the current state, theta_n = pi/2 +
    arctan(a_{e,n-1} / (i a_{g,n})) zeroes the amplitude on |g,n>; the
    resonant swap of duration t_n = theta_n / (sqrt(n) xi) is followed
    by a global X_pi flip.  If a_{g,n} already vanishes while a_{e,n-1}
    does not, the degenerate branch theta_n = pi/2 is used; manifolds
    with no population contribute no step.
    """
    if xi <= 0:
        raise ValueError("coupling xi must be positive")
    n_star = spec.cutoff_star
    cutoff = n_star + 1
    layout = _protocol_layout(spec)
    psi = target_state(spec)
    h_jc = jc_hamiltonian(xi, cutoff)
    flip = x_pi(layout)
    steps: list[ProtocolStep] = []
    for n in range(n_star, 0, -1):
        a_g = psi.amps[layout.index((0, n))]
        a_e = psi.amps[layout.index((1, n - 1))]
        if abs(a_g) < _ZERO_TOL and abs(a_e) < _ZERO_TOL:
            continue
        if abs(a_g) < _ZERO_TOL:
            theta = math.pi / 2.0
        else:
            ratio = a_e / (1j * a_g)
            theta = math.pi / 2.0 + math.atan(ratio.real)
        t_n = theta / (math.sqrt(n) * xi)
        psi = evolve(h_jc, psi, t_n)
        psi = StateVector(layout, flip.mat @ psi.amps)
        steps.append(ProtocolStep(n=n, theta=theta, t=t_n))
    return steps


def apply_sequence(
    steps: list[ProtocolStep],
    psi0: StateVector,
    direction: str = "forward",
    *,
    xi: float,
) -> StateVector:
    """Apply the swap/flip sequence in forward or backward order.

    Forward applies Q_1 S_1 ... Q_N S_N (vacuum in, target out);
    backward applies S_N Q_N ... S_1 Q_1 (target in, vacuum out).
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    layout = psi0.layout
    if layout.n_factors != 2 or layout.dims[0] != 2:
        raise ValueError("sequence requires a qubit (x) boson layout")
    if steps and layout.dims[1] < max(s.n for s in steps) + 1:
        raise ValueError("boson cutoff too small for the sequence")
    h_jc = jc_hamiltonian(xi, layout.dims[1])
    flip = x_pi(layout)
    psi = psi0
    ordered = list(reversed(steps)) if direction == "forward" else list(steps)
    for step in ordered:
        if direction == "forward":
            psi = StateVector(layout, flip.mat @ psi.amps)
            psi = evolve(h_jc, psi, step.t)
        else:
            psi = evolve(h_jc, psi, step.t)
            psi = StateVector(layout, flip.mat @ psi.amps)
    return psi


def make_amplitude_cat(spec: CatSpec, cutoff: int, xi: float = 1.0) -> StateVector:
    """Synthesize the phase cat and displace it into N+(|0> + |alpha>).

    The swap protocol runs on the exact (N*+1)-level space, the result
    is zero-padded to `cutoff`, then displaced by alpha/2.
    """
    if cutoff < spec.cutoff_star + 1:
        raise ValueError("cutoff too small for the protocol support")
    steps = backward_angles(spec, xi)
    layout = _protocol_layout(spec)
    vac = np.zeros(layout.dim, dtype=complex)
    vac[0] = 1.0
    prepared = apply_sequence(steps, StateVector(layout, vac), "forward", xi=xi)
    # qubit ends in |g>; keep the boson amplitudes and fix the global phase
    boson = prepared.amps[: spec.cutoff_star + 1].copy()
    k0 = int(np.argmax(np.abs(boson)))
    boson *= np.exp(-1j * np.angle(boson[k0])) * np.sign(
        cat_fock_amplitudes(spec, spec.cutoff_star, renormalize=True)[k0].real
    )
    padded = np.zeros(cutoff, dtype=complex)
    padded[: boson.size] = boson
    padded /= np.linalg.norm(padded)
    disp = displacement(complex(spec.alpha) / 2.0, cutoff)
    return StateVector(SpaceLayout((cutoff,)), disp.mat @ padded)
