"""Floquet sideband engineering for frequency-modulated qubits.

Sinusoidal modulation of a qubit at frequency nu with amplitude eps
creates sidebands at multiples of nu; the first sideband provides an
effective resonant exchange with the bus resonator of strength
lambda/2 = J1(eps/nu) xi, while the off-resonant harmonics produce AC
Stark shifts S1 and S2.  The module computes the coupling and the
shifts in closed form, the full time-dependent interaction Hamiltonian,
and the swap frequency from the one-period Floquet map of that
Hamiltonian.  The drive keeps {|e,0>, |g,1>} closed, so the map is a
product of closed-form 2x2 midpoint steps on that manifold, each the
two-level exchange step hilbert._fock_rabi_amplitudes that dynamics and
catprep also use; the dense Hamiltonian with hilbert.evolve_td is its
test oracle.  The Bessel functions J_n come from Miller's backward
recurrence (hilbert._bessel_orders), all orders in one sweep.

Layouts are qubit (x) boson, qubit first.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import OperatorMatrix, SpaceLayout, annihilation
from .hilbert import _bessel_orders, _fock_rabi_amplitudes

__all__ = [
    "FloquetParams",
    "effective_coupling",
    "stark_shifts",
    "full_floquet_hamiltonian",
    "stark_compensating_detuning",
    "swap_frequency",
]

# midpoint steps per drive period in swap_frequency
_STEPS_PER_DRIVE_PERIOD = 40
# the largest modulation index |eps/nu| FloquetParams takes: up to it,
# hilbert._bessel_cut keeps the neglected J_k below 1e-27, and there
# _bessel_orders(25, mu) takes 0.14-0.21 s on a 2-vCPU VM; its sweep
# runs over about |mu| orders
_MAX_MODULATION_INDEX = 1e6


@dataclass(frozen=True)
class FloquetParams:
    """Per-qubit modulation record; all frequencies angular (rad/s)."""

    xi: float
    eps: float
    nu: float
    delta: float = 0.0
    K: float = 0.0
    name: str = ""

    def __post_init__(self):
        for name in ("xi", "eps", "nu", "delta", "K"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.nu <= 0:
            raise ValueError("modulation frequency nu must be positive")
        if abs(self.mu) > _MAX_MODULATION_INDEX:
            raise ValueError(f"modulation index |eps/nu| = {abs(self.mu):.6g} is above "
                             f"{_MAX_MODULATION_INDEX:g}, past the range of the Bessel sweep")
        ratio = abs(self._j01[0] * self.xi) / self.nu
        if ratio >= 0.2:
            warnings.warn(
                f"|J0(mu) xi| / nu = {ratio:.3f} strains the rotating-wave "
                "condition for the effective model",
                UserWarning,
            )

    @property
    def mu(self) -> float:
        """Modulation index eps/nu."""
        return self.eps / self.nu

    @functools.cached_property
    def _j01(self) -> np.ndarray:
        """J0(mu) and J1(mu) from one sweep, for the rotating-wave check and
        effective_coupling; not a field, so == and repr ignore it."""
        return _bessel_orders(1, self.mu)


def effective_coupling(p: FloquetParams) -> float:
    """First-sideband exchange strength lambda/2 = J1(eps/nu) xi."""
    return float(p._j01[1]) * p.xi


def stark_shifts(p: FloquetParams, n_max: int = 25) -> tuple[float, float]:
    """Stark shifts (S1, S2) from the off-resonant harmonics n != 1.

    S1 = sum [J_n(mu) xi]^2 / ((1-n) nu)
    S2 = sum 2 [J_n(mu) xi]^2 / ((1-n) nu + K)

    The series is summed over |n| <= n_max, with every J_|n| from one
    recurrence sweep and J_{-n}^2 = J_n^2; the edge terms must be below
    1e-6 of the totals or a convergence warning is raised.
    """
    if n_max < 10:
        raise ValueError("n_max must be at least 10 for series truncation")
    n = np.delete(np.arange(-n_max, n_max + 1), n_max + 1)  # every n but 1
    num = (_bessel_orders(n_max, p.mu)[np.abs(n)] * p.xi) ** 2
    den2 = (1 - n) * p.nu + p.K
    resonant = n[np.abs(den2) < 1e-9 * p.nu]
    if resonant.size:
        raise ValueError(
            f"resonant denominator (1-n) nu + K = 0 at harmonic n = {resonant[0]}"
        )
    t1 = num / ((1 - n) * p.nu)
    t2 = 2.0 * num / den2
    s1, s2 = float(t1.sum()), float(t2.sum())
    edge = np.abs(n) == n_max
    edge1, edge2 = np.abs(t1[edge]).max(), np.abs(t2[edge]).max()
    if (s1 != 0 and edge1 > 1e-6 * abs(s1)) or (s2 != 0 and edge2 > 1e-6 * abs(s2)):
        warnings.warn(
            f"Stark series not converged at n_max={n_max}; increase n_max",
            UserWarning,
        )
    return s1, s2


def full_floquet_hamiltonian(p: FloquetParams, t: float, cutoff: int) -> OperatorMatrix:
    """Exact interaction-picture Hamiltonian under the modulation drive.

    H'(t) = xi exp(-i mu sin(nu t)) exp(i nu t) a^dag |g><e| + h.c.
          + delta |e><e|
    """
    a = annihilation(cutoff)
    eye_b = np.eye(cutoff)
    pe = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |e><e|
    sge = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
    coeff = p.xi * np.exp(-1j * p.mu * math.sin(p.nu * t)) * np.exp(1j * p.nu * t)
    term = coeff * np.kron(sge, a.conj().T)
    mat = term + term.conj().T + p.delta * np.kron(pe, eye_b)
    return OperatorMatrix(SpaceLayout((2, cutoff)), mat)


def stark_compensating_detuning(p: FloquetParams) -> float:
    """Detuning that realigns |e,0> with |g,1> against the Stark shifts.

    The rotating-wave sideband model places |e,0> at -S1 and |g,1> at
    +S1, so an extra 2 S1 on |e><e| restores the resonance of the
    sideband swap.
    """
    s1, _ = stark_shifts(p)
    return 2.0 * s1


def swap_frequency(p: FloquetParams) -> float:
    """Sideband swap frequency from the one-period Floquet map of |e,0>, |g,1>.

    The exact drive is periodic in 2 pi/nu and keeps the manifold
    {|e,0>, |g,1>} closed; on it H'(t) = h = [[delta, f^*], [f, 0]] with
    f = xi exp(i theta), theta = nu t - mu sin(nu t).  The period is cut
    into _STEPS_PER_DRIVE_PERIOD midpoint steps of length dt.  |f| = xi
    at every step, so the two-level exchange step of hilbert at n = 1,
    coupling 2 xi and detuning delta gives one (c_g, c_e) for all, and
    exp(-i h dt) = exp(-i delta dt/2) [[c_g^*, c_e e^(-i theta)],
    [c_e e^(i theta), c_g]].  The time-ordered product has eigenphases
    phi_1, phi_2; the quasienergy splitting wrap(phi_1 - phi_2)
    nu/(2 pi) is the angular swap frequency (Shirley, Phys. Rev. 138,
    B979, 1965); the common phase of each step cancels in it.  The map
    is the one hilbert.evolve_td gives with full_floquet_hamiltonian on
    a cutoff of 2.  Returns linear frequency in Hz.
    """
    if effective_coupling(p) == 0:
        raise ValueError("zero effective coupling; no swap to measure")
    period = 2.0 * math.pi / p.nu
    dt = period / _STEPS_PER_DRIVE_PERIOD
    t = (np.arange(_STEPS_PER_DRIVE_PERIOD) + 0.5) * dt
    # e^(i theta) = f / xi
    turn = np.exp(-1j * p.mu * np.sin(p.nu * t)) * np.exp(1j * p.nu * t)
    c_g, c_e = _fock_rabi_amplitudes(1.0, 2.0 * p.xi, p.delta, dt)
    steps = np.empty((t.size, 2, 2), dtype=complex)
    steps[:, 0, 0], steps[:, 0, 1] = np.conj(c_g), c_e * turn.conj()
    steps[:, 1, 0], steps[:, 1, 1] = c_e * turn, c_g
    u = steps[0]
    for step in steps[1:]:
        u = step @ u
    lam = np.linalg.eigvals(u)
    return abs(np.angle(lam[0] * np.conj(lam[1]))) * p.nu / (4.0 * math.pi**2)
