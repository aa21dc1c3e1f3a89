import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbath.floquet import (
    FloquetParams,
    bessel_j,
    effective_coupling,
    full_floquet_hamiltonian,
    stark_compensating_detuning,
    stark_shifts,
    swap_frequency,
)
from catbath.hilbert import SpaceLayout

from conftest import DRIVE_TABLE, LAMBDA_HALF_TABLE, MHZ, drive_params


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(1, 0.42895) == pytest.approx(0.20956, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 6), st.floats(-9.9, 9.9))
def test_bessel_against_mpmath(n, x):
    assert bessel_j(n, x) == pytest.approx(float(mpmath.besselj(n, x)), abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.floats(0.01, 9.0))
def test_bessel_reflection(n, x):
    assert bessel_j(-n, x) == pytest.approx((-1) ** n * bessel_j(n, x), abs=1e-12)


def test_effective_coupling_table():
    for row, lam_half in zip(DRIVE_TABLE, LAMBDA_HALF_TABLE):
        p = drive_params(row)
        assert abs(effective_coupling(p) - lam_half * MHZ) < 0.15 * MHZ, row[0]


def test_effective_coupling_zero_modulation():
    p = FloquetParams(xi=19.6 * MHZ, eps=0.0, nu=190 * MHZ)
    assert effective_coupling(p) == 0.0


def test_coupling_monotone_in_eps(r1_params):
    nu = 190 * MHZ
    mus = np.linspace(0.0, 1.84, 30)
    lams = [
        effective_coupling(FloquetParams(xi=19.6 * MHZ, eps=mu * nu, nu=nu))
        for mu in mus
    ]
    assert np.all(np.diff(lams) > 0)


def test_stark_shifts_zero_coupling():
    p = FloquetParams(xi=0.0, eps=81.5 * MHZ, nu=190 * MHZ, K=250 * MHZ)
    assert stark_shifts(p) == (0.0, 0.0)


def test_stark_shifts_long_series_oracle(r1_params):
    s1, s2 = stark_shifts(r1_params, n_max=20)
    s1_long, s2_long = stark_shifts(r1_params, n_max=200)
    assert s1 == pytest.approx(s1_long, rel=1e-9)
    assert s2 == pytest.approx(s2_long, rel=1e-9)


def test_stark_s1_dominated_by_n0_term(r1_params):
    p = r1_params
    s1, _ = stark_shifts(p)
    n0 = (bessel_j(0, p.mu) * p.xi) ** 2 / p.nu
    assert s1 > 0
    assert n0 > 0.5 * s1


def test_stark_resonant_denominator_error():
    # (1-n) nu + K = 0 at n = 3 when K = 2 nu
    p = FloquetParams(xi=10 * MHZ, eps=50 * MHZ, nu=100 * MHZ, K=200 * MHZ)
    with pytest.raises(ValueError, match="n = 3"):
        stark_shifts(p)


def test_full_hamiltonian_fourier_component(r1_params):
    p = r1_params
    layout = SpaceLayout((2, 3))
    g1 = layout.index((0, 1))
    e0 = layout.index((1, 0))
    period = 2 * math.pi / p.nu
    ts = (np.arange(4000) + 0.5) / 4000 * period
    coeffs = np.array([full_floquet_hamiltonian(p, t, 3).mat[g1, e0] for t in ts])
    avg = coeffs.mean()
    assert avg == pytest.approx(bessel_j(1, p.mu) * p.xi, rel=1e-6)
    # mu = 0: pure e^{i nu t}, zero average
    p0 = FloquetParams(xi=p.xi, eps=0.0, nu=p.nu)
    coeffs0 = np.array([full_floquet_hamiltonian(p0, t, 3).mat[g1, e0] for t in ts])
    assert abs(coeffs0.mean()) < 1e-10 * p.xi


def test_jacobi_anger_partial_sum():
    rng = np.random.default_rng(3)
    for mu in (0.3, 0.7, 1.0):
        phases = rng.uniform(0, 2 * math.pi, 100)
        for ph in phases:
            lhs = np.exp(-1j * mu * math.sin(ph))
            rhs = sum(bessel_j(n, mu) * np.exp(-1j * n * ph) for n in range(-15, 16))
            assert abs(lhs - rhs) < 1e-10


def test_effective_vs_full_swap_frequency_all_rows():
    # discrepancy < 1e-3 between the effective-model rate and the swap
    # frequency measured from full propagation at compensated detuning
    for row in DRIVE_TABLE:
        p = drive_params(row)
        delta_c = stark_compensating_detuning(p)
        pc = FloquetParams(
            xi=p.xi, eps=p.eps, nu=p.nu, delta=delta_c, K=p.K, name=p.name
        )
        f_full = swap_frequency(pc)
        f_eff = 2.0 * abs(effective_coupling(p)) / (2 * math.pi)
        assert abs(f_full - f_eff) / f_eff < 1e-3, row[0]


def test_r1_swap_frequency_published(r1_params):
    delta_c = stark_compensating_detuning(r1_params)
    pc = FloquetParams(
        xi=r1_params.xi,
        eps=r1_params.eps,
        nu=r1_params.nu,
        delta=delta_c,
        K=r1_params.K,
    )
    f = swap_frequency(pc)
    assert abs(f - 8.1e6) / 8.1e6 < 0.05


def test_params_validation():
    with pytest.raises(ValueError):
        FloquetParams(xi=1.0, eps=1.0, nu=0.0)
    with pytest.warns(UserWarning):
        FloquetParams(xi=100 * MHZ, eps=0.0, nu=100 * MHZ)
