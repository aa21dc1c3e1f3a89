import math

import numpy as np
import pytest

from catbath.catprep import (
    CatSpec,
    ProtocolStep,
    apply_sequence,
    backward_angles,
    cat_fock_amplitudes,
    make_amplitude_cat,
    target_state,
    truncation_fidelity,
)
from catbath.floquet import FloquetParams, full_floquet_hamiltonian
from catbath.hilbert import SpaceLayout, StateVector, coherent_state, fidelity

from conftest import MHZ

XI = 19.8 * MHZ

# tabulated six-step sequence and intermediates for alpha/2 = 1.65,
# printed to two decimals
THETAS = [1.57, 2.09, 2.48, 2.35, 2.03, 2.20]  # theta_6 .. theta_1
INTERMEDIATES = {
    6: {("g", 0): 0.36, ("g", 2): 0.70, ("g", 4): 0.55, ("g", 6): 0.27},
    5: {
        ("g", 1): -0.55, ("g", 3): -0.52, ("g", 5): -0.27,
        ("e", 0): -0.36j, ("e", 2): -0.43j, ("e", 4): -0.16j,
    },
    4: {
        ("g", 0): 0.23, ("g", 2): 0.54, ("g", 4): 0.31,
        ("e", 1): 0.62j, ("e", 3): 0.40j,
    },
    3: {("g", 1): -0.65, ("g", 3): -0.51, ("e", 0): -0.23j, ("e", 2): -0.51j},
    2: {("g", 0): 0.59, ("g", 2): 0.72, ("e", 1): 0.36j},
    1: {("g", 1): -0.80, ("e", 0): -0.59j},
    0: {("g", 0): 1.0},
}


def dense_oracle(cutoff: int):
    """Dense swap propagator at time t and the X_pi flip matrix.

    The resonant exchange xi (a |e><g| + h.c.) is the sideband drive at
    t = 0 with no modulation; its exponential comes from eigh.
    """
    h = full_floquet_hamiltonian(FloquetParams(xi=XI, eps=0.0, nu=1e3 * XI), 0.0, cutoff)
    w, v = np.linalg.eigh(h.mat)
    flip = np.kron([[0, -1j], [-1j, 0]], np.eye(cutoff))
    return (lambda t: (v * np.exp(-1j * w * t)) @ v.conj().T), flip


def vacuum(layout: SpaceLayout) -> StateVector:
    amps = np.zeros(layout.dim, dtype=complex)
    amps[0] = 1.0
    return StateVector(layout, amps)


def test_cat_amplitudes_published_values():
    spec = CatSpec(alpha=3.3)
    c = cat_fock_amplitudes(spec, 6)
    assert np.allclose(c[[0, 2, 4, 6]].real, [0.36, 0.70, 0.55, 0.27], atol=0.005)
    assert np.all(c[1::2] == 0)


def test_cat_amplitudes_vacuum_limit():
    c = cat_fock_amplitudes(CatSpec(alpha=1e-8), 6)
    assert c[0] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(c[1:])) < 1e-9


def factorial_cat_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """c_2m = N+ 2 (alpha/2)^2m exp(-|alpha|^2/8) / sqrt((2m)!), term by term."""
    alpha = complex(alpha)
    norm_plus = (2.0 * (1.0 + math.exp(-abs(alpha) ** 2 / 2.0))) ** -0.5
    amps = np.zeros(cutoff + 1, dtype=complex)
    for m in range(cutoff // 2 + 1):
        amps[2 * m] = (
            norm_plus * 2.0 * (alpha / 2.0) ** (2 * m) * math.exp(-abs(alpha) ** 2 / 8.0)
            / math.sqrt(math.factorial(2 * m))
        )
    return amps


@pytest.mark.parametrize("alpha", [3.3, 1.7 + 0.4j, 1e-8, 0.0])
@pytest.mark.parametrize("cutoff", [6, 7, 12, 30])
def test_cat_amplitudes_match_factorial_oracle(alpha, cutoff):
    oracle = factorial_cat_amplitudes(alpha, cutoff)
    c = cat_fock_amplitudes(CatSpec(alpha=alpha), cutoff)
    assert c.shape == (cutoff + 1,)
    assert np.max(np.abs(c - oracle)) <= 1e-15
    assert np.all(c[1::2] == 0)
    renormalized = cat_fock_amplitudes(CatSpec(alpha=alpha), cutoff, renormalize=True)
    assert np.max(np.abs(renormalized - oracle / np.linalg.norm(oracle))) <= 1e-15


def test_truncation_fidelity():
    assert truncation_fidelity(CatSpec(alpha=3.3)) == pytest.approx(0.989, abs=1e-3)


def test_backward_angles_match_table():
    steps = backward_angles(CatSpec(alpha=3.3), XI)
    assert [s.n for s in steps] == [6, 5, 4, 3, 2, 1]
    assert np.allclose([s.theta for s in steps], THETAS, atol=0.01)
    for s in steps:
        assert s.t == pytest.approx(s.theta / (math.sqrt(s.n) * XI))
        assert 0 <= s.theta < 2 * math.pi and s.t > 0


def _match_intermediate(psi: StateVector, table: dict, flip_e: bool = False):
    layout = psi.layout
    ref = np.zeros(layout.dim, dtype=complex)
    for (q, n), val in table.items():
        sign = -1.0 if (flip_e and q == "e") else 1.0
        ref[layout.index((0 if q == "g" else 1, n))] = sign * val
    # global phase is free; align on the largest entry
    k = int(np.argmax(np.abs(ref)))
    phase = psi.amps[k] / ref[k]
    phase /= abs(phase)
    assert np.max(np.abs(psi.amps - phase * ref)) < 0.011


def test_backward_sweep_reproduces_tabulated_intermediates():
    spec = CatSpec(alpha=3.3)
    steps = backward_angles(spec, XI)
    psi = target_state(spec)
    _match_intermediate(psi, INTERMEDIATES[6])
    for idx, step in enumerate(steps):
        psi = apply_sequence([step], psi, "backward", xi=XI)
        _match_intermediate(psi, INTERMEDIATES[step.n - 1])


def test_forward_sequence_reproduces_intermediates_up_to_z():
    # the forward pass visits Z|psi_n>: same |g> amplitudes, flipped |e> sign
    spec = CatSpec(alpha=3.3)
    steps = backward_angles(spec, XI)
    layout = SpaceLayout((2, 7))
    psi = vacuum(layout)
    _match_intermediate(psi, INTERMEDIATES[0])
    # apply forward one step at a time: Q_n then S_n, n = 1..6
    for idx, m in enumerate(range(1, 7)):
        step = steps[len(steps) - 1 - idx]
        assert step.n == m
        psi = apply_sequence([step], psi, "forward", xi=XI)
        _match_intermediate(psi, INTERMEDIATES[m], flip_e=True)
    assert fidelity(psi, target_state(spec)) > 1 - 1e-6


def test_backward_sequence_empties_target():
    spec = CatSpec(alpha=3.3)
    steps = backward_angles(spec, XI)
    out = apply_sequence(steps, target_state(spec), "backward", xi=XI)
    assert abs(out.amps[0]) ** 2 > 1 - 1e-10


def test_elimination_zeroes_each_manifold():
    spec = CatSpec(alpha=3.3)
    layout = SpaceLayout((2, 7))
    psi = target_state(spec)
    steps = backward_angles(spec, XI)
    for step in steps:
        psi = apply_sequence([step], psi, "backward", xi=XI)
        assert abs(psi.amps[layout.index((0, step.n))]) < 1e-12


def test_roundtrip_and_vacuum_target():
    spec = CatSpec(alpha=3.3)
    layout = SpaceLayout((2, 7))
    steps = backward_angles(spec, XI)
    fwd = apply_sequence(steps, vacuum(layout), "forward", xi=XI)
    back = apply_sequence(steps, fwd, "backward", xi=XI)
    assert np.linalg.norm(back.amps - vacuum(layout).amps) < 1e-9
    assert apply_sequence([], vacuum(layout), "forward", xi=XI).amps[0] == 1.0
    # vacuum-limit target produces no steps
    assert backward_angles(CatSpec(alpha=1e-10), XI) == []


def test_z_conjugation_identity():
    # Z U_fwd Z equals the adjoint of the backward kill sequence
    # U_bwd = Q_1 S_1 ... Q_6 S_6, so the forward order prepares the
    # target despite not being U_bwd's inverse step by step
    spec = CatSpec(alpha=3.3)
    steps = backward_angles(spec, XI)
    layout = SpaceLayout((2, 7))
    u_fwd = np.column_stack(
        [apply_sequence(steps, StateVector(layout, e_j), "forward", xi=XI).amps
         for e_j in np.eye(layout.dim, dtype=complex)]
    )
    swap, flip = dense_oracle(7)
    u_bwd = np.eye(14, dtype=complex)
    for step in steps:  # n = 6..1: S_n first, then Q_n
        u_bwd = flip @ swap(step.t) @ u_bwd
    z = np.kron(np.diag([1.0, -1.0]), np.eye(7)).astype(complex)
    assert np.max(np.abs(z @ u_fwd @ z - u_bwd.conj().T)) < 1e-10


@pytest.mark.parametrize("cutoff", [1, 2, 7, 12])
def test_swap_step_matches_dense_oracle(cutoff):
    # the closed-form swap against the dense exponential, the truncated
    # top level |e, cutoff-1> included; the flip is the X_pi matrix
    swap, flip = dense_oracle(cutoff)
    layout = SpaceLayout((2, cutoff))
    rng = np.random.default_rng(cutoff)
    for _ in range(10):
        amps = rng.normal(size=2 * cutoff) + 1j * rng.normal(size=2 * cutoff)
        psi = StateVector(layout, amps / np.linalg.norm(amps))
        t = rng.uniform(0.0, 4.0 * math.pi) / XI
        step = [ProtocolStep(n=cutoff - 1, theta=t * XI, t=t)]
        fwd = apply_sequence(step, psi, "forward", xi=XI)
        bwd = apply_sequence(step, psi, "backward", xi=XI)
        assert np.max(np.abs(fwd.amps - swap(t) @ flip @ psi.amps)) < 1e-12
        assert np.max(np.abs(bwd.amps - flip @ swap(t) @ psi.amps)) < 1e-12


def test_make_amplitude_cat():
    spec = CatSpec(alpha=3.3)
    cat = make_amplitude_cat(spec, 40, XI)
    vac = np.zeros(40)
    vac[0] = 1.0
    ideal = vac + coherent_state(3.3, 40).amps
    ideal /= np.linalg.norm(ideal)
    f = abs(np.vdot(cat.amps, ideal)) ** 2
    assert f > 0.985
    assert f == pytest.approx(0.989, abs=0.002)  # truncation-limited baseline


def test_make_amplitude_cat_vacuum_limit():
    cat = make_amplitude_cat(CatSpec(alpha=1e-10), 12)
    assert abs(cat.amps[0]) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_phase_cat_parity_before_displacement():
    spec = CatSpec(alpha=3.3)
    steps = backward_angles(spec, XI)
    layout = SpaceLayout((2, 7))
    psi = apply_sequence(steps, vacuum(layout), "forward", xi=XI)
    boson = psi.amps[:7]
    parity = np.sum(np.where(np.arange(7) % 2 == 0, 1.0, -1.0) * np.abs(boson) ** 2)
    assert parity == pytest.approx(1.0, abs=1e-9)


def test_renormalized_cat_far_past_the_cutoff_is_finite():
    # at alpha = 1e5 every true amplitude of u(alpha/2) is 0; the
    # renormalized target is still the even cat, weighted to its top level
    c = cat_fock_amplitudes(CatSpec(alpha=1.0e5), 6, renormalize=True)
    assert np.all(np.isfinite(c)) and np.linalg.norm(c) == pytest.approx(1.0, abs=1e-15)
    assert np.all(c[1::2] == 0.0)
    assert np.allclose(c[4] / c[6], np.sqrt(6 * 5) / (0.5e5) ** 2, rtol=1e-12)
    assert np.all(np.isfinite(target_state(CatSpec(alpha=1.0e5)).amps))
