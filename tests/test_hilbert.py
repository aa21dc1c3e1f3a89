import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbath.hilbert import (
    DensityMatrix,
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    TruncationWarning,
    _coherent_amplitudes,
    _exchange_step,
    _fock_rabi_amplitudes,
    _rabi_rate,
    annihilation,
    coherent_state,
    density_from_state,
    displacement,
    evolve,
    evolve_td,
    partial_trace,
)


def test_layout_rejects_bad_dims():
    with pytest.raises(ValueError):
        SpaceLayout(())
    with pytest.raises(ValueError):
        SpaceLayout((2, 0))
    with pytest.raises(ValueError):
        SpaceLayout((5, 3))  # two bosonic factors


def test_layout_index_is_row_major():
    layout = SpaceLayout((4, 2, 2))
    assert layout.dim == 16
    assert layout.index((0, 0, 0)) == 0
    assert layout.index((1, 0, 1)) == 5
    assert layout.index((3, 1, 1)) == 15


def test_annihilation_matrix_elements():
    assert np.allclose(annihilation(2), [[0, 1], [0, 0]])
    a3 = annihilation(3)
    assert a3[1, 2] == pytest.approx(math.sqrt(2))
    a4 = annihilation(4)
    assert np.allclose(a4.conj().T @ a4, np.diag([0, 1, 2, 3]))
    with pytest.raises(ValueError):
        annihilation(0)


def test_ladder_commutator_below_truncation():
    a = annihilation(12)
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.max(np.abs(comm[:11, :11] - np.eye(12)[:11, :11])) < 1e-12


def test_coherent_state_vacuum_and_mean_photon():
    vac = coherent_state(0.0, 5)
    assert vac.amps[0] == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)  # the tail at 40 is below 1e-8
        psi = coherent_state(3.3, 40)
    n_mean = np.sum(np.arange(40) * np.abs(psi.amps) ** 2)
    assert n_mean == pytest.approx(10.89, abs=1e-6)


def test_coherent_state_tail_oracle():
    # squared norm before renormalization equals the Poisson CDF below n=7
    alpha, cutoff = 3.3, 7
    mean = alpha**2
    cdf = sum(math.exp(-mean) * mean**n / math.factorial(n) for n in range(cutoff))
    n = np.arange(cutoff)
    raw = np.exp(-mean / 2.0) * alpha**n / np.sqrt(
        [math.factorial(int(k)) for k in n]
    )
    assert np.sum(raw**2) == pytest.approx(cdf, abs=1e-12)
    with pytest.warns(TruncationWarning) as caught:
        coherent_state(alpha, cutoff)
    # the warning reports that Poisson tail, 1 - cdf, to 3 digits
    reported = re.search(r"tail (\S+) exceeds", str(caught[0].message)).group(1)
    assert float(reported) == pytest.approx(1.0 - cdf, rel=1e-3)


@pytest.mark.parametrize("alpha,cutoff", [(3.3, 12), (35.0, 40)])
def test_coherent_state_one_pass_tail_against_mpmath(alpha, cutoff):
    # the true amplitudes alpha^n exp(-|alpha|^2/2) / sqrt(n!) in 50 digits
    import mpmath

    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        exact = [a**n * mpmath.exp(-a * a / 2) / mpmath.sqrt(mpmath.factorial(n))
                 for n in range(cutoff)]
        tail = float(1 - mpmath.fsum(c * c for c in exact))
    # one pass: u peaks at 1, and exp(s) u are the true amplitudes
    u, s = _coherent_amplitudes(alpha, cutoff)
    assert np.max(np.abs(u)) == 1.0
    ref = np.array([float(c) for c in exact])
    assert np.allclose(np.exp(s) * u, ref, rtol=1e-12, atol=0)
    with pytest.warns(TruncationWarning) as caught:
        psi = coherent_state(alpha, cutoff)
    reported = re.search(r"tail (\S+) exceeds", str(caught[0].message)).group(1)
    assert float(reported) == pytest.approx(tail, rel=1e-3)
    # the state is that same u, renormalized
    assert np.array_equal(psi.amps, u / np.linalg.norm(u))


@pytest.mark.parametrize("alpha", [35.0, 45.0 * np.exp(0.3j), 1.0e5])
def test_coherent_state_far_past_the_cutoff_is_finite(alpha):
    # every true amplitude squares to 0 (at 1e5 every amplitude is 0), yet
    # the renormalized state is finite, of unit norm, with the ratios
    # u_n / u_(n-1) = alpha / sqrt(n), and the tail of 1 still warns
    with pytest.warns(TruncationWarning, match="tail 1.000e"):
        psi = coherent_state(alpha, 40)
    assert np.all(np.isfinite(psi.amps))
    assert np.linalg.norm(psi.amps) == pytest.approx(1.0, abs=1e-15)
    top = psi.amps[-12:]
    assert np.allclose(top[1:] / top[:-1], alpha / np.sqrt(np.arange(29, 40)), rtol=1e-12)


def test_displacement_identity_and_action():
    assert np.allclose(displacement(0.0, 8), np.eye(8))
    d = displacement(1.65, 40)
    target = coherent_state(1.65, 40)
    vac = np.zeros(40)
    vac[0] = 1.0
    assert abs(np.vdot(d @ vac, target.amps)) ** 2 > 1 - 1e-8


def test_displacement_unitary_and_truncation_report():
    d = displacement(1.2 + 0.4j, 30)
    assert np.max(np.abs(d.conj().T @ d - np.eye(30))) < 1e-8
    with pytest.warns(TruncationWarning):
        displacement(3.0, 6)


def test_evolve_identity_rabi_and_jc_block():
    layout = SpaceLayout((2,))
    psi = StateVector(layout, np.array([1.0, 0.0]))
    lam = 2 * math.pi * 5e6
    h = OperatorMatrix(layout, lam / 2 * np.array([[0, 1], [1, 0]], dtype=complex))
    same = evolve(h, psi, 0.0)
    assert np.allclose(same.amps, psi.amps)
    cycle = evolve(h, psi, 2 * math.pi / lam)
    assert abs(np.vdot(cycle.amps, psi.amps)) == pytest.approx(1.0, abs=1e-12)
    # resonant JC from |e,0>: P_g(t) = sin^2(xi t) in the one-excitation block
    xi = 2 * math.pi * 19.6e6
    jc = SpaceLayout((2, 3))
    a = annihilation(3)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    term = xi * np.kron(sp, a)
    hjc = OperatorMatrix(jc, term + term.conj().T)
    amps = np.zeros(6, dtype=complex)
    amps[jc.index((1, 0))] = 1.0
    for t in np.linspace(0, 40e-9, 9):
        out = evolve(hjc, StateVector(jc, amps), t)
        pg = abs(out.amps[jc.index((0, 1))]) ** 2
        assert pg == pytest.approx(math.sin(xi * t) ** 2, abs=1e-10)


def test_evolve_rejects_non_hermitian():
    layout = SpaceLayout((2,))
    h = OperatorMatrix(layout, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        evolve(h, StateVector(layout, np.array([1.0, 0.0])), 1.0)


def test_evolve_td_matches_constant_and_is_second_order():
    layout = SpaceLayout((2,))
    h = OperatorMatrix(layout, 2 * math.pi * 1e6 * np.array([[1, 1], [1, -1]], dtype=complex))
    psi = StateVector(layout, np.array([1.0, 0.0]))
    t_end = 100e-9
    ref = evolve(h, psi, t_end)
    out = evolve_td(lambda t: h, psi, t_end, 1e-9)
    assert np.linalg.norm(out.amps - ref.amps) < 1e-8

    def h_of_t(t):
        w = 2 * math.pi * 20e6
        m = math.cos(w * t) * np.array([[0, 1], [1, 0]]) + np.diag([1.0, -1.0])
        return OperatorMatrix(layout, 2 * math.pi * 5e6 * m.astype(complex))

    exact = evolve_td(h_of_t, psi, t_end, 1e-11)  # much finer reference
    err = [
        np.linalg.norm(evolve_td(h_of_t, psi, t_end, dt).amps - exact.amps)
        for dt in (8e-10, 4e-10)
    ]
    assert err[0] / err[1] == pytest.approx(4.0, rel=0.15)


def test_evolve_td_rejects_layout_mismatch():
    # same dimension 6, factors swapped: qubit (x) boson against boson (x) qubit
    h = OperatorMatrix(SpaceLayout((3, 2)), np.eye(6, dtype=complex))
    psi = StateVector(SpaceLayout((2, 3)), np.eye(1, 6)[0])
    with pytest.raises(ValueError, match="layout mismatch"):
        evolve_td(lambda t: h, psi, 1e-9, 1e-10)


@pytest.mark.parametrize(
    "t_end, dt",
    [(-100e-9, 1e-10), (math.nan, 1e-10), (math.inf, 1e-10), (-math.inf, 1e-10),
     (1e-9, 0.0), (1e-9, -1e-10), (1e-9, math.nan), (1e-9, math.inf)],
)
def test_evolve_td_rejects_bad_times_before_any_step(t_end, dt):
    # the times are checked before the first step, so h_of_t is never called
    layout = SpaceLayout((2,))
    calls = []

    def h_of_t(t):
        calls.append(t)
        return OperatorMatrix(layout, np.eye(2, dtype=complex))

    psi = StateVector(layout, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="t_end must be" if dt == 1e-10 else "dt must be"):
        evolve_td(h_of_t, psi, t_end, dt)
    assert calls == []


def test_partial_trace_product_and_bell(rng):
    # product state
    pa = rng.random(3)
    pa /= pa.sum()
    pb = rng.random(2)
    pb /= pb.sum()
    rho = DensityMatrix(SpaceLayout((3, 2)), np.kron(np.diag(pa), np.diag(pb)).astype(complex))
    red = partial_trace(rho, [0])
    assert np.allclose(red.mat, np.diag(pa))
    # Bell state
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho_b = density_from_state(StateVector(SpaceLayout((2, 2)), bell))
    assert np.allclose(partial_trace(rho_b, [1]).mat, np.eye(2) / 2)
    with pytest.raises(ValueError):
        partial_trace(rho_b, [])


def test_partial_trace_preserves_trace(rng):
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = m @ m.conj().T
    m /= np.trace(m).real
    rho = DensityMatrix(SpaceLayout((2, 2, 2)), m)
    for keep in ([0], [1, 2], [0, 1, 2]):
        red = partial_trace(rho, keep)
        assert np.trace(red.mat).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(partial_trace(rho, [0, 1, 2]).mat, rho.mat)


@settings(max_examples=30, deadline=None)
@given(
    alpha_re=st.floats(-2.0, 2.0),
    alpha_im=st.floats(-2.0, 2.0),
)
def test_coherent_state_mean_photon_property(alpha_re, alpha_im):
    alpha = complex(alpha_re, alpha_im)
    psi = coherent_state(alpha, 40)
    n_mean = np.sum(np.arange(40) * np.abs(psi.amps) ** 2)
    assert n_mean == pytest.approx(abs(alpha) ** 2, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.floats(0.0, 50e-9))
def test_propagator_is_unitary(seed, t):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout((5,))
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = OperatorMatrix(layout, 2 * math.pi * 1e7 * (m + m.conj().T))
    w, v = np.linalg.eigh(h.mat)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-8


# rates in rad/s and times in s spanning the package's scales; 0 is drawn
# often, since Omega = 0 at n = 0, delta = 0 is the case that needs a limit
_rates = st.floats(1e3, 1e10)
_detunings = st.one_of(st.just(0.0), _rates, _rates.map(lambda x: -x))
_times = st.one_of(st.just(0.0), st.floats(0.0, 1e-5))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60), _rates, _detunings, _times)
def test_exchange_step_is_unitary(n, lam, delta, t):
    c_g, c_e = _fock_rabi_amplitudes(n, lam, delta, t)
    assert np.isfinite(c_g) and np.isfinite(c_e)
    assert abs(abs(c_g) ** 2 + abs(c_e) ** 2 - 1.0) < 1e-14
    if n == 0:
        assert c_e == 0


@pytest.mark.parametrize("t", [0.0, 3e-9, 1e-5])
def test_exchange_step_at_zero_rate_is_exactly_the_identity(t):
    # Omega = 0: sin(Omega t/2)/Omega takes its limit t/2, and 0 * t/2
    # leaves c_g = 1 and c_e = 0 exactly, with no 0 * inf along the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cos, sin_over_omega = _exchange_step(*_rabi_rate(0.0, 2e8, 0.0), t)
        c_g, c_e = _fock_rabi_amplitudes(0, 2e8, 0.0, t)
        grid = _fock_rabi_amplitudes(np.arange(3.0)[:, None], 2e8, 0.0, np.array([0.0, t]))
    assert cos == 1 and sin_over_omega == t / 2
    assert c_g == 1 and c_e == 0
    assert np.all(grid[0][0] == 1) and np.all(grid[1][0] == 0)
    assert np.all(np.isfinite(grid[0])) and np.all(np.isfinite(grid[1]))
