"""Even phase-cat synthesis by sequential photon-number swaps.

The target is the even cat N+(|alpha/2> + |-alpha/2>), built from the
coherent amplitudes of hilbert; its Fock decomposition has only even
photon numbers.  A backward-elimination sweep over the n-excitation
manifolds {|g,n>, |e,n-1>} chooses the resonant swap angles that empty
the target state into the vacuum; the forward (laboratory) order of
the same pulses then prepares the target from |g,0> (Law & Eberly,
PRL 76, 1055, 1996).  A final cavity displacement D(alpha/2) converts
the phase cat into the amplitude cat N+(|0> + |alpha>).  It is applied
in closed form, column by column, by the ladder

    D(beta)|n> = (a^dag - beta^*) D(beta)|n-1> / sqrt(n),

from D(beta)|0> = |beta>, the coherent amplitudes of hilbert (Cahill &
Glauber, Phys. Rev. 177, 1857, 1969).  Below the cutoff each column
follows from the previous column's entries below the cutoff, so the
cat is the exact truncation of D(alpha/2) applied to the synthesized
N*+1 levels, renormalized, and no extra levels are needed.  It agrees
with mpmath's Laguerre elements to about 3e-15.  At a cutoff too small
for the cat it is the closest unit vector on the cutoff's levels to
the displaced cat, and a TruncationWarning names the weight lost past
the cutoff: 0.206 at cutoff 7 and alpha = 2.5.

The swaps are applied in closed form.  The resonant exchange
xi (a |e><g| + a^dag |g><e|) keeps each manifold {|g,n>, |e,n-1>}
closed and rotates it at sqrt(n) xi: the two-level exchange step
hilbert._fock_rabi_amplitudes at coupling 2 xi and no detuning, the
copy that dynamics and floquet also use.  The X_pi flip
exp(-i pi/2 sigma_x) swaps the qubit rows with a factor -i.  No matrix
is built.

Protocol states live on a qubit (x) boson layout (qubit is factor 0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import _TAIL_TOL, SpaceLayout, StateVector, TruncationWarning
from .hilbert import _coherent_amplitudes, _fock_rabi_amplitudes

__all__ = [
    "CatSpec",
    "ProtocolStep",
    "cat_fock_amplitudes",
    "truncation_fidelity",
    "backward_angles",
    "apply_sequence",
    "make_amplitude_cat",
]

# operational cutoff N* of the protocol; even, as the target is even
N_STAR = 6
# amplitudes below this count as empty in backward_angles
_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class CatSpec:
    """Target even cat by its full separation alpha."""

    alpha: complex


@dataclass(frozen=True)
class ProtocolStep:
    """One manifold of the swap sequence: angle theta_n and duration t_n."""

    n: int
    theta: float  # rad
    t: float  # s


def cat_fock_amplitudes(spec: CatSpec, cutoff: int, renormalize: bool = False) -> np.ndarray:
    """Fock amplitudes of the even phase cat |C+(alpha/2)>.

    N+ (c(alpha/2) + c(-alpha/2)), c = exp(s) u the coherent amplitudes
    of hilbert._coherent_amplitudes: the even entries are 2 N+ c_n(alpha/2),
    the odd ones zero.  With `renormalize` the even entries of u are
    scaled to unit norm (the protocol's target state).
    """
    if cutoff < N_STAR:
        raise ValueError(f"cutoff {cutoff} below operational cutoff {N_STAR}")
    alpha = complex(spec.alpha)
    u, s = _coherent_amplitudes(alpha / 2.0, cutoff + 1)
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[::2] = u[::2]
    if renormalize:  # from u: the norm of the true amplitudes underflows at large |alpha|
        return amps / np.linalg.norm(amps)
    norm_plus = (2.0 * (1.0 + math.exp(-abs(alpha) ** 2 / 2.0))) ** -0.5
    return 2.0 * norm_plus * np.exp(s) * amps


def truncation_fidelity(spec: CatSpec) -> float:
    """Overlap F = sum_{n <= N*} |c_n|^2 of the ideal cat with its truncation."""
    return float(np.sum(np.abs(cat_fock_amplitudes(spec, N_STAR)) ** 2))


def _swap(amps: np.ndarray, xi: float, t: float) -> np.ndarray:
    """exp(-i xi t (a |e><g| + a^dag |g><e|)) on a (2, L) qubit (x) boson array.

    Manifold {|g,n>, |e,n-1>} turns by sqrt(n) xi t; |g,0> and the
    truncated top level |e,L-1> have no partner and stay put.
    """
    g, e = amps
    c, s = _fock_rabi_amplitudes(np.arange(1, g.size), 2.0 * xi, 0.0, t)
    out = amps.copy()
    out[0, 1:] = c * g[1:] + s * e[:-1]
    out[1, :-1] = s * g[1:] + c * e[:-1]
    return out


def _flip(amps: np.ndarray) -> np.ndarray:
    """Global qubit flip exp(-i pi/2 sigma_x) on a (2, L) array."""
    return -1j * amps[::-1]


def target_state(spec: CatSpec) -> StateVector:
    """|g> (x) truncated, renormalized phase cat on the protocol layout."""
    amps = np.zeros((2, N_STAR + 1), dtype=complex)
    amps[0] = cat_fock_amplitudes(spec, N_STAR, renormalize=True)
    return StateVector(SpaceLayout(amps.shape), amps.ravel())


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
    psi = target_state(spec).amps.reshape(2, -1)
    steps: list[ProtocolStep] = []
    for n in range(N_STAR, 0, -1):
        a_g, a_e = psi[0, n], psi[1, n - 1]
        if abs(a_g) < _ZERO_TOL and abs(a_e) < _ZERO_TOL:
            continue
        if abs(a_g) < _ZERO_TOL:
            theta = math.pi / 2.0
        else:
            ratio = a_e / (1j * a_g)
            theta = math.pi / 2.0 + math.atan(ratio.real)
        t_n = theta / (math.sqrt(n) * xi)
        psi = _flip(_swap(psi, xi, t_n))
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
    psi = psi0.amps.reshape(layout.dims)
    if direction == "forward":
        for step in reversed(steps):
            psi = _swap(_flip(psi), xi, step.t)
    else:
        for step in steps:
            psi = _flip(_swap(psi, xi, step.t))
    return StateVector(layout, psi.ravel())


def _displaced_columns(beta: complex, cutoff: int, levels: int):
    """(c, t) with exp(t_n) c[m, n] = <m|D(beta)|n> for m < cutoff, n < levels.

    Column 0 is the scaled u of hilbert._coherent_amplitudes, and column
    n follows from column n - 1 by D(beta)|n> = (a^dag - beta^*)
    D(beta)|n-1> / sqrt(n), whose entry m reads entries m - 1 and m of
    the previous column: the truncated columns are exact.  Each column
    is scaled to a largest magnitude of 1 and its log scale kept in t,
    so nothing overflows or underflows at any |beta|.  Needs levels <=
    cutoff, so that no column is all zero.
    """
    u, s = _coherent_amplitudes(beta, cutoff)
    sq = np.sqrt(np.arange(cutoff))
    c = np.empty((cutoff, levels), dtype=complex)
    t = np.empty(levels)
    c[:, 0], t[0] = u, s
    for n in range(1, levels):
        col = -np.conj(beta) * c[:, n - 1]
        col[1:] += sq[1:] * c[:-1, n - 1]
        peak = np.max(np.abs(col))
        c[:, n] = col / peak
        t[n] = t[n - 1] + math.log(peak / math.sqrt(n))
    return c, t


def _synthesize(spec: CatSpec, cutoff: int, xi: float) -> tuple[list[ProtocolStep], StateVector]:
    """The swap sequence and the amplitude cat it prepares, from one backward sweep.

    See make_amplitude_cat; ``catbath prep-cat`` writes both outputs.
    """
    if cutoff < N_STAR + 1:
        raise ValueError("cutoff too small for the protocol support")
    steps = backward_angles(spec, xi)
    layout = SpaceLayout((2, N_STAR + 1))
    vac = np.zeros(layout.dim, dtype=complex)
    vac[0] = 1.0
    prepared = apply_sequence(steps, StateVector(layout, vac), "forward", xi=xi)
    # qubit ends in |g>; keep the boson amplitudes and fix the global phase
    boson = prepared.amps[: N_STAR + 1].copy()
    k0 = int(np.argmax(np.abs(boson)))
    boson *= np.exp(-1j * np.angle(boson[k0])) * np.sign(
        cat_fock_amplitudes(spec, N_STAR, renormalize=True)[k0].real
    )
    boson /= np.linalg.norm(boson)
    c, t = _displaced_columns(complex(spec.alpha) / 2.0, cutoff, N_STAR + 1)
    top = t.max()
    cat = c @ (boson * np.exp(t - top))
    norm = np.linalg.norm(cat)
    # exp(top) cat is the part below the cutoff of a unit vector
    tail = -math.expm1(2.0 * min(0.0, top + math.log(norm)))
    if tail > _TAIL_TOL:
        warnings.warn(
            f"displaced cat truncation tail {tail:.3e} exceeds tolerance {_TAIL_TOL:.1e} "
            f"at cutoff {cutoff}",
            TruncationWarning,
        )
    return steps, StateVector(SpaceLayout((cutoff,)), cat / norm)


def make_amplitude_cat(spec: CatSpec, cutoff: int, xi: float = 1.0) -> StateVector:
    """Synthesize the phase cat and displace it into N+(|0> + |alpha>).

    The swap protocol runs on the exact (N*+1)-level space, and the
    phase cat it prepares is displaced by alpha/2 onto `cutoff` levels
    by the ladder of _displaced_columns: the exact truncation of
    D(alpha/2) on that cat, renormalized.  At a cutoff too small for
    the cat (cutoff 7 at alpha = 2.5 loses 0.206 of its weight) this is
    the closest unit vector on the cutoff's levels, and one
    TruncationWarning names the tail lost past the cutoff when it
    exceeds hilbert._TAIL_TOL.
    """
    return _synthesize(spec, cutoff, xi)[1]
