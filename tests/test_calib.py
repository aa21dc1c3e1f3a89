import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbath.calib import (
    CrosstalkMatrix,
    assemble_mcor,
    commanded_amplitudes,
    detuned_rabi,
    fit_zpa_map,
)


def test_assemble_mcor():
    assert np.allclose(assemble_mcor(np.zeros((3, 3))), np.eye(3))
    coeffs = np.zeros((2, 2))
    coeffs[1, 0] = 0.05
    assert np.allclose(assemble_mcor(coeffs), [[1, 0], [-0.05, 1]])
    rng = np.random.default_rng(2)
    c = rng.normal(scale=0.05, size=(3, 3))
    np.fill_diagonal(c, 0.0)
    m = assemble_mcor(c)
    for i in range(3):
        for j in range(3):
            assert m[i, j] == (1.0 if i == j else -c[i, j])
    with pytest.raises(ValueError):
        assemble_mcor(np.eye(2))


def test_crosstalk_matrix_type():
    coeffs = np.zeros((2, 2))
    coeffs[1, 0] = 0.05
    ct = CrosstalkMatrix(coeffs)
    assert ct.n == 2
    assert ct.condition_number < 2.0
    with pytest.raises(ValueError):
        CrosstalkMatrix(np.ones((2, 2)))


def test_commanded_amplitudes_worked_example():
    coeffs = np.zeros((2, 2))
    coeffs[1, 0] = 0.05
    z = commanded_amplitudes(assemble_mcor(coeffs), np.array([1.0, 0.0]))
    assert np.allclose(z, [1.0, 0.05])
    assert np.allclose(
        commanded_amplitudes(np.eye(3), np.array([1.0, 2.0, 3.0])), [1, 2, 3]
    )


def test_commanded_amplitudes_random_roundtrip(rng):
    for n in (2, 4, 10):
        c = rng.normal(scale=0.03, size=(n, n))
        np.fill_diagonal(c, 0.0)
        m = assemble_mcor(c)
        z_eff = rng.normal(size=n)
        z_cmd = commanded_amplitudes(m, z_eff)
        assert np.linalg.norm(m @ z_cmd - z_eff) < 1e-12
    with pytest.raises(ValueError):
        commanded_amplitudes(np.zeros((2, 2)), np.array([1.0, 0.0]))


def test_detuned_rabi_values():
    omega = 2 * math.pi * 3e6
    assert detuned_rabi(omega, 0.0, math.pi / omega) == pytest.approx(1.0)
    delta = 2 * math.pi * 4e6
    omega_r = math.hypot(omega, delta)
    assert omega_r == pytest.approx(2 * math.pi * 5e6)
    t = math.pi / omega_r
    assert detuned_rabi(omega, delta, t) == pytest.approx((3 / 5) ** 2)
    assert detuned_rabi(0.0, 0.0, 1.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 5e7),
    st.floats(-5e7, 5e7),
    st.floats(0.0, 1e-6),
)
def test_detuned_rabi_bounds(omega, delta, t):
    pe = detuned_rabi(omega, delta, t)
    assert 0.0 <= pe <= 1.0
    if omega**2 + delta**2 > 0:
        assert pe <= omega**2 / (omega**2 + delta**2) + 1e-12


def test_detuned_rabi_v_shape_minimum():
    # spectrum vs detuning: the half-width tracked at P_e = 1/2 pinches
    # to the bare Rabi frequency at zero detuning
    omega = 2 * math.pi * 3e6
    deltas = np.linspace(-2 * math.pi * 10e6, 2 * math.pi * 10e6, 201)
    peaks = np.array([omega**2 / (omega**2 + d**2) for d in deltas])
    assert deltas[np.argmax(peaks)] == pytest.approx(0.0, abs=1e-9)
    assert math.hypot(omega, 0.0) / (2 * math.pi) == pytest.approx(3e6)


def test_fit_zpa_map_exact_and_constant():
    samples = [(z, 2.0 + 3.0 * z) for z in np.linspace(-1, 1, 7)]
    coeffs, resid = fit_zpa_map(samples, 1)
    assert np.allclose(coeffs, [2.0, 3.0], atol=1e-12)
    assert np.max(np.abs(resid)) < 1e-12
    samples = [(z, 7.5) for z in np.linspace(-1, 1, 5)]
    coeffs, _ = fit_zpa_map(samples, 0)
    assert coeffs[0] == pytest.approx(7.5)
    with pytest.raises(ValueError):
        fit_zpa_map([(0.0, 1.0)], 1)


def test_fit_zpa_map_noisy_quadratic_seeded():
    rng = np.random.default_rng(4)
    true = np.array([5.7e9, -2.1e8, 3.3e7])  # Hz
    zpa = np.linspace(-0.8, 0.8, 60)
    freq = true[0] + true[1] * zpa + true[2] * zpa**2 + rng.normal(0, 1e3, zpa.size)
    coeffs, resid = fit_zpa_map(list(zip(zpa, freq)), 2)
    sigma = 1e3
    bound = 3 * sigma / math.sqrt(zpa.size)
    # column scaling keeps each coefficient within the 3 sigma heuristic
    assert abs(coeffs[0] - true[0]) < 10 * bound
    assert abs(coeffs[1] - true[1]) < 10 * bound
    assert abs(coeffs[2] - true[2]) < 20 * bound
    # residual orthogonal to the design columns
    a = np.vander(zpa, 3, increasing=True)
    assert np.max(np.abs(a.T @ resid)) < 1e-6 * np.linalg.norm(freq)
