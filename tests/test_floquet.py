import dataclasses
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from catbath.floquet import (
    FloquetParams,
    effective_coupling,
    full_floquet_hamiltonian,
    stark_compensating_detuning,
    stark_shifts,
    swap_frequency,
)
from catbath.config import load_config
from catbath.hilbert import SpaceLayout, StateVector, _bessel_cut, _bessel_orders, evolve_td

from conftest import DRIVE_TABLE, LAMBDA_HALF_TABLE, MHZ, drive_params

DEVICE_YAML = Path(__file__).parent.parent / "configs" / "device.yaml"


def test_bessel_trivial_values():
    assert _bessel_orders(0, 0.0)[0] == 1.0
    assert _bessel_orders(1, 0.0)[1] == 0.0
    assert _bessel_orders(1, 0.42895)[1] == pytest.approx(0.20956, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.floats(-9.9, 9.9))
def test_bessel_against_mpmath(n, x):
    assert _bessel_orders(n, x)[n] == pytest.approx(float(mpmath.besselj(n, x)), abs=1e-10)


def mp_bessel_orders(n, z):
    """J_0(z), ..., J_{n-1}(z) to about 45 digits.

    mpmath.besselj gives the two highest orders; the exact three-term
    recurrence, run downwards in 50-digit arithmetic, gives the rest.
    Calling besselj at every order would cost about 8 ms an order at
    |z| = 1000.
    """
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        j = [mpmath.mpf(0)] * n
        j[n - 1], j[n - 2] = mpmath.besselj(n - 1, z), mpmath.besselj(n - 2, z)
        for k in range(n - 2, 0, -1):
            j[k - 1] = 2 * k / z * j[k] - j[k + 1]
        return np.array([float(v) for v in j])


@pytest.mark.parametrize("z", [177.9, 1000.0, -500.0])
def test_bessel_orders_against_mpmath_through_chebyshev_length(z):
    # every order a Chebyshev series at argument z computes (the same
    # length as hilbert._chebyshev_propagate), so the _CHEBYSHEV_TOL cut
    # falls inside
    n = _bessel_cut(0, z)
    j = _bessel_orders(n - 1, z)
    ref = mp_bessel_orders(n, z)
    for k in range(0, n, 37):
        assert ref[k] == pytest.approx(float(mpmath.besselj(k, z)), rel=1e-15, abs=1e-300)
    assert np.flatnonzero(2.0 * np.abs(ref) > 1e-17)[-1] < n - 1
    err = np.abs(j - ref)
    assert err.max() <= 1e-15
    big = np.abs(ref) > 1e-250
    assert np.max(err[big] / np.abs(ref[big])) <= 1e-12


@pytest.mark.parametrize("x", [0.0, 5e-324, -1e-9, 2e-8])
def test_bessel_orders_tiny_arguments(x):
    j = _bessel_orders(40, x)
    assert np.all(np.isfinite(j))
    ref = np.array([float(mpmath.besselj(k, x)) for k in range(41)])
    big = np.abs(ref) > 1e-250
    assert np.all(np.abs(j[~big]) <= 1e-250)
    assert np.max(np.abs(j[big] - ref[big]) / np.abs(ref[big])) <= 1e-14


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


def test_stark_shifts_match_scipy_oracle_device_rows():
    # independent oracle: the series term by term on scipy's jv
    cfg = load_config(str(DEVICE_YAML))
    assert len(cfg.qubits) == 8
    for q in cfg.qubits:
        p = q.floquet_params()
        s1 = s2 = 0.0
        for n in range(-25, 26):
            if n != 1:
                num = (special.jv(n, p.mu) * p.xi) ** 2
                s1 += num / ((1 - n) * p.nu)
                s2 += 2.0 * num / ((1 - n) * p.nu + p.K)
        got = stark_shifts(p)
        assert got[0] == pytest.approx(s1, rel=1e-13, abs=0), q.name
        assert got[1] == pytest.approx(s2, rel=1e-13, abs=0), q.name


def test_stark_s1_dominated_by_n0_term(r1_params):
    p = r1_params
    s1, _ = stark_shifts(p)
    n0 = (_bessel_orders(0, p.mu)[0] * p.xi) ** 2 / p.nu
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
    assert avg == pytest.approx(_bessel_orders(1, p.mu)[1] * p.xi, rel=1e-6)
    # mu = 0: pure e^{i nu t}, zero average
    p0 = FloquetParams(xi=p.xi, eps=0.0, nu=p.nu)
    coeffs0 = np.array([full_floquet_hamiltonian(p0, t, 3).mat[g1, e0] for t in ts])
    assert abs(coeffs0.mean()) < 1e-10 * p.xi


def test_jacobi_anger_partial_sum():
    rng = np.random.default_rng(3)
    for mu in (0.3, 0.7, 1.0):
        j = _bessel_orders(15, mu)
        # J_{-n} = (-1)^n J_n
        j_n = {n: (-1) ** n * j[-n] if n < 0 else j[n] for n in range(-15, 16)}
        phases = rng.uniform(0, 2 * math.pi, 100)
        for ph in phases:
            lhs = np.exp(-1j * mu * math.sin(ph))
            rhs = sum(j_n[n] * np.exp(-1j * n * ph) for n in range(-15, 16))
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


def dense_swap_frequency(p: FloquetParams) -> float:
    """swap_frequency's map by dense midpoint steps: the oracle of the closed form.

    evolve_td with full_floquet_hamiltonian on a cutoff of 2, 40 steps
    per drive period, both columns of the manifold {|e,0>, |g,1>}, then
    the quasienergy splitting of the 2x2 map's eigenvalues.
    """
    layout = SpaceLayout((2, 2))
    manifold = [layout.index((1, 0)), layout.index((0, 1))]
    period = 2.0 * math.pi / p.nu
    columns = []
    for i in manifold:
        psi = StateVector(layout, np.eye(layout.dim)[i])
        out = evolve_td(lambda t: full_floquet_hamiltonian(p, t, 2), psi, period, period / 40)
        columns.append(out.amps[manifold])
    lam = np.linalg.eigvals(np.column_stack(columns))
    return abs(np.angle(lam[0] * np.conj(lam[1]))) * p.nu / (4.0 * math.pi**2)


def test_swap_frequency_matches_dense_midpoint_oracle():
    # the device rows at compensated detuning, then seeded random drives
    # with a detuning and a Kerr term of their own, and drives with xi < 0,
    # eps < 0 or both
    params = []
    for row in DRIVE_TABLE:
        p = drive_params(row)
        params.append(FloquetParams(
            xi=p.xi, eps=p.eps, nu=p.nu, delta=stark_compensating_detuning(p), K=p.K,
        ))
    rng = np.random.default_rng(12)
    for _ in range(8):
        xi, eps, nu = rng.uniform(5.0, 20.0), rng.uniform(20.0, 90.0), rng.uniform(130.0, 230.0)
        delta, k = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10.0), rng.uniform(100.0, 300.0)
        params.append(FloquetParams(
            xi=xi * MHZ, eps=eps * MHZ, nu=nu * MHZ, delta=delta * MHZ, K=k * MHZ,
        ))
    for xi_sign, eps_sign in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        xi, eps, nu = rng.uniform(5.0, 20.0), rng.uniform(20.0, 90.0), rng.uniform(130.0, 230.0)
        params.append(FloquetParams(
            xi=xi_sign * xi * MHZ, eps=eps_sign * eps * MHZ, nu=nu * MHZ,
            delta=rng.uniform(-10.0, 10.0) * MHZ, K=250.0 * MHZ,
        ))
    for p in params:
        f = swap_frequency(p)
        assert abs(f - dense_swap_frequency(p)) <= 1e-12 * f, p


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["xi", "eps", "nu", "delta", "K"])
def test_params_reject_non_finite(field, bad):
    kwargs = dict(xi=19.6 * MHZ, eps=81.5 * MHZ, nu=190.0 * MHZ, K=250.0 * MHZ)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        FloquetParams(**kwargs)


def test_one_bessel_sweep_per_qubit(monkeypatch):
    # J0 for the rotating-wave check and J1 for lambda come from one sweep:
    # the N = 8 reservoir of the device makes 8 sweeps, not 16
    from catbath import cli, floquet

    cfg = load_config(DEVICE_YAML)
    calls = []

    def counted(n_max, x):
        calls.append((n_max, x))
        return _bessel_orders(n_max, x)

    monkeypatch.setattr(floquet, "_bessel_orders", counted)
    spec = cli._reservoir_from_config(cfg, 8)
    assert len(calls) == 8
    assert all(n_max == 1 for n_max, _ in calls)
    # lambda is J1(mu) xi of its own sweep, bit for bit
    for q, lam in zip(cfg.qubits, spec.couplings):
        p = q.floquet_params()
        assert lam == 2.0 * abs(float(_bessel_orders(1, p.mu)[1]) * p.xi)
        assert effective_coupling(p) == _bessel_orders(1, p.mu)[1] * p.xi


def test_floquet_params_fields_equality_and_repr_ignore_the_sweep():
    a = FloquetParams(xi=19.6 * MHZ, eps=81.5 * MHZ, nu=190.0 * MHZ, K=250.0 * MHZ, name="R1")
    b = FloquetParams(xi=19.6 * MHZ, eps=81.5 * MHZ, nu=190.0 * MHZ, K=250.0 * MHZ, name="R1")
    effective_coupling(a)  # a has used its sweep, b has not
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert [f.name for f in dataclasses.fields(a)] == [
        "xi", "eps", "nu", "delta", "K", "name"
    ]
    assert repr(a) == (
        f"FloquetParams(xi={19.6 * MHZ!r}, eps={81.5 * MHZ!r}, nu={190.0 * MHZ!r}, "
        f"delta=0.0, K={250.0 * MHZ!r}, name='R1')"
    )
