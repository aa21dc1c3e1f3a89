import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from catbath import dynamics, tomography
from catbath.hilbert import (
    DensityMatrix,
    SpaceLayout,
    StateVector,
    TruncationWarning,
    coherent_state,
    density_from_state,
)
from catbath.tomography import (
    RabiTrace,
    WignerMap,
    derotate,
    fit_photon_numbers,
    synthesize_rabi,
    wigner_map,
    wigner_point,
)

from conftest import MHZ, NS

XI = 19.8 * MHZ
TWO_OVER_PI = 2.0 / math.pi


def fock_density(n: int, cutoff: int) -> DensityMatrix:
    amps = np.zeros(cutoff, dtype=complex)
    amps[n] = 1.0
    return density_from_state(StateVector(SpaceLayout((cutoff,)), amps))


def cat_density(alpha: float, cutoff: int) -> DensityMatrix:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        vac = np.zeros(cutoff, dtype=complex)
        vac[0] = 1.0
        amps = vac + coherent_state(alpha, cutoff).amps
        amps /= np.linalg.norm(amps)
    return density_from_state(StateVector(SpaceLayout((cutoff,)), amps))


def analytic_cat_wigner(alpha: float, beta: complex) -> float:
    """Two displaced Gaussians plus an interference term, for the
    normalized amplitude cat (|0> + |alpha>) with real alpha."""
    norm2 = 1.0 / (2.0 * (1.0 + math.exp(-(alpha**2) / 2.0)))

    def gauss(center: complex) -> float:
        return TWO_OVER_PI * math.exp(-2.0 * abs(beta - center) ** 2)

    cross = (
        TWO_OVER_PI
        * np.exp(-2.0 * abs(beta) ** 2 + 2.0 * beta * alpha - alpha**2 / 2.0)
    )
    return float(norm2 * (gauss(0.0) + gauss(alpha) + 2.0 * cross.real))


def test_synthesize_rabi_vacuum_and_single_tone():
    taus = np.linspace(0, 200, 64) * NS
    tr = synthesize_rabi(np.array([1.0]), XI, taus)
    assert np.max(np.abs(tr.pe)) < 1e-15
    pn = np.zeros(4)
    pn[1] = 1.0
    tr = synthesize_rabi(pn, XI, taus)
    assert np.allclose(tr.pe, 0.5 * (1 - np.cos(2 * XI * taus)))


def test_fit_recovers_point_mass():
    taus = np.linspace(0, 300, 200) * NS
    tr = synthesize_rabi(np.array([1.0, 0.0, 0.0]), XI, taus)
    pn = fit_photon_numbers(tr, 4)
    assert pn[0] == pytest.approx(1.0, abs=1e-6)


def test_fit_roundtrip_noiseless(rng):
    taus = np.linspace(0, 300, 400) * NS
    for _ in range(5):
        pn = rng.random(9)
        pn /= pn.sum()
        tr = synthesize_rabi(pn, XI, taus)
        fit = fit_photon_numbers(tr, 8)
        assert np.abs(fit - pn).sum() < 1e-3


def test_fit_roundtrip_noisy_seeded():
    rng = np.random.default_rng(7)
    taus = np.linspace(0, 300, 400) * NS
    pn = rng.random(9)
    pn /= pn.sum()
    tr = synthesize_rabi(pn, XI, taus)
    noisy = RabiTrace(taus, tr.pe + rng.normal(0, 0.01, tr.pe.shape), XI)
    fit = fit_photon_numbers(noisy, 8)
    assert np.abs(fit - pn).sum() < 0.05


def test_fit_kkt_residual():
    rng = np.random.default_rng(11)
    taus = np.linspace(0, 300, 300) * NS
    pn = rng.random(7)
    pn /= pn.sum()
    tr = synthesize_rabi(pn, XI, taus)
    noisy = RabiTrace(taus, tr.pe + rng.normal(0, 0.02, tr.pe.shape), XI)
    p = fit_photon_numbers(noisy, 6)
    a = 0.5 * np.cos(2 * XI * np.sqrt(np.arange(7))[None, :] * taus[:, None])
    grad = a.T @ (a @ p - (0.5 - noisy.pe))
    mu = -grad[p > 1e-12].mean()
    # stationarity on the support, dual feasibility off it
    assert np.max(np.abs(grad[p > 1e-12] + mu)) < 1e-8
    off = grad[p <= 1e-12] + mu
    assert off.size == 0 or np.min(off) > -1e-8


def test_fit_warns_on_short_span():
    taus = np.linspace(0, 20, 40) * NS  # well under two slow periods
    tr = synthesize_rabi(np.array([0.5, 0.5]), XI, taus)
    with pytest.warns(UserWarning, match="condition"):
        fit_photon_numbers(tr, 6)


@pytest.mark.parametrize("n_max", [-1, 21])
def test_fit_rejects_out_of_range_n_max(n_max):
    taus = np.linspace(0, 300, 240) * NS
    tr = synthesize_rabi(np.array([0.2, 0.5, 0.3]), XI, taus)
    with pytest.raises(ValueError, match="n_max"):
        fit_photon_numbers(tr, n_max)


def test_fit_span_check_ignores_sign_of_xi():
    # a long trace conditions the fit whichever way the drive is signed
    taus = np.linspace(0, 1000, 400) * NS
    tr = synthesize_rabi(np.array([0.2, 0.5, 0.3]), XI, taus)
    flipped = RabiTrace(tr.taus, tr.pe, -XI)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(fit_photon_numbers(flipped, 4), fit_photon_numbers(tr, 4))


def test_wigner_vacuum_and_coherent():
    assert wigner_point(fock_density(0, 20), 0.0) == pytest.approx(
        TWO_OVER_PI, abs=1e-9
    )
    beta = 1.1 - 0.6j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rho = density_from_state(coherent_state(beta, 30))
    assert wigner_point(rho, beta) == pytest.approx(TWO_OVER_PI, abs=1e-8)


def test_wigner_cat_against_analytic_oracle():
    alpha = 3.3
    rho = cat_density(alpha, 40)
    for beta in (0.0, alpha, 1.65, 1.65 + 0.3j, 1.65 - 0.476j, 0.5 + 1.0j):
        assert wigner_point(rho, complex(beta)) == pytest.approx(
            analytic_cat_wigner(alpha, complex(beta)), abs=2e-4
        )


def test_wigner_fringe_midpoint():
    rho = cat_density(3.3, 40)
    assert wigner_point(rho, 1.65) == pytest.approx(TWO_OVER_PI, abs=0.01)


def test_wigner_parity_at_origin():
    rho = cat_density(3.3, 40)
    parity = np.sum(
        np.where(np.arange(40) % 2 == 0, 1.0, -1.0) * np.real(np.diag(rho.mat))
    )
    assert wigner_point(rho, 0.0) == pytest.approx(TWO_OVER_PI * parity, abs=1e-9)


def test_wigner_linearity(rng):
    rho_a = fock_density(1, 12)
    rho_b = fock_density(3, 12)
    mix = DensityMatrix(SpaceLayout((12,)), 0.3 * rho_a.mat + 0.7 * rho_b.mat)
    beta = 0.4 + 0.2j
    assert wigner_point(mix, beta) == pytest.approx(
        0.3 * wigner_point(rho_a, beta) + 0.7 * wigner_point(rho_b, beta), abs=1e-12
    )


def test_wigner_map_normalization_and_bound():
    rho = cat_density(1.5, 16)
    re = np.linspace(-2.5, 4.0, 53)
    im = np.linspace(-2.5, 2.5, 41)
    wm = wigner_map(rho, re, im)
    assert np.isrealobj(wm.values)
    assert np.max(np.abs(wm.values)) <= TWO_OVER_PI + 1e-6
    darea = (re[1] - re[0]) * (im[1] - im[0])
    assert wm.values.sum() * darea == pytest.approx(1.0, abs=0.02)


def test_wigner_map_rejects_nonmonotone_grid():
    rho = fock_density(0, 8)
    with pytest.raises(ValueError):
        wigner_map(rho, np.array([0.0, -1.0]), np.array([0.0, 1.0]))


def test_derotate_identity_and_pi():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rho = density_from_state(coherent_state(1.2, 25))
        target = density_from_state(coherent_state(-1.2, 25))
    assert np.allclose(derotate(rho, 0.0).mat, rho.mat)
    assert np.max(np.abs(derotate(rho, math.pi).mat - target.mat)) < 1e-10


def test_derotate_rotates_wigner_field(rng):
    rho = cat_density(2.0, 25)
    theta = 0.7
    rot = derotate(rho, theta)
    for _ in range(10):
        beta = complex(rng.uniform(-1, 2.5), rng.uniform(-1.5, 1.5))
        assert wigner_point(rot, beta) == pytest.approx(
            wigner_point(rho, beta * np.exp(1j * theta)), abs=1e-8
        )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1000))
def test_wigner_bound_random_states(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = m @ m.conj().T
    m /= np.trace(m).real
    rho = DensityMatrix(SpaceLayout((8,)), m)
    beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    assert abs(wigner_point(rho, beta)) <= TWO_OVER_PI + 1e-9


def laguerre_wigner(rho: np.ndarray, beta: complex) -> float:
    """Independent oracle: the closed-form sum with scipy's Laguerre
    polynomials and log-gamma factorials, term by term."""
    x = 4.0 * abs(beta) ** 2
    total = 0.0
    for m in range(rho.shape[0]):
        for n in range(m, rho.shape[0]):
            coef = (
                (-1) ** m
                * (2.0 * beta) ** (n - m)
                * math.exp(0.5 * (math.lgamma(m + 1.0) - math.lgamma(n + 1.0)) - x / 2.0)
                * special.eval_genlaguerre(m, n - m, x)
            )
            total += (1.0 if m == n else 2.0) * (rho[m, n] * coef).real
    return TWO_OVER_PI * total


def test_wigner_map_far_corners_match_laguerre_oracle():
    # mixed, complex-coherence field state with weight near the cutoff,
    # where a truncated displacement operator is off by up to 1e-4:
    # one reservoir qubit, lambda/2pi = 8.1 MHz, delta/2pi = 1.5 MHz,
    # 23 ns, derotated by 0.7 rad
    spec = dynamics.ReservoirSpec((8.1 * MHZ,), (1.5 * MHZ,), 3.3**2)
    psi = dynamics.analytic_joint_state(23 * NS, 3.3, spec, 40)
    rho = derotate(dynamics.reduced_field_state(psi), 0.7)
    assert np.linalg.eigvalsh(rho.mat)[-2] > 0.01  # mixed
    assert np.abs(np.imag(rho.mat)).max() > 0.01  # complex coherences
    re = np.array([-1.5, 1.5, 4.5])
    im = np.array([-2.5, 0.0, 2.5])
    wm = wigner_map(rho, re, im)
    for i, x in enumerate(re):
        for j, y in enumerate(im):
            ref = laguerre_wigner(rho.mat, complex(x, y))
            assert abs(wm.values[i, j] - ref) < 1e-12
            assert abs(wigner_point(rho, complex(x, y)) - ref) < 1e-12


def random_density(seed: int, dim: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    rank = rng.integers(1, dim + 1)
    m = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = m @ m.conj().T
    return DensityMatrix(SpaceLayout((dim,)), m / np.trace(m).real)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_wigner_properties_random_states(seed, dim):
    rho = random_density(seed, dim)
    # the grid holds the state: W of a dim <= 6 state is below 1e-20 at |beta| = 6
    grid = np.linspace(-6.0, 6.0, 121)
    wm = wigner_map(rho, grid, grid)
    step = grid[1] - grid[0]
    assert wm.values.sum() * step**2 == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(wm.values)) <= TWO_OVER_PI + 1e-12
    parity = np.sum((-1.0) ** np.arange(dim) * np.real(np.diag(rho.mat)))
    assert wigner_point(rho, 0.0) == pytest.approx(TWO_OVER_PI * parity, abs=1e-12)


def test_wigner_map_rejects_nonfinite_values():
    with pytest.raises(ValueError, match="finite"):
        WignerMap(np.array([0.0, 1.0]), np.array([0.0]), np.array([[0.1], [np.nan]]))


def test_wigner_matches_laguerre_oracle_at_the_phase_edges():
    # a random complex mixed rho at cutoff 40, on a grid that holds
    # beta = 0, the negative real and imaginary axes (phi = pi, -pi/2),
    # |beta| ~ 1e-9 and every quadrant
    rho = random_density(20, 40)
    assert np.linalg.eigvalsh(rho.mat)[-2] > 0.01  # mixed
    assert np.abs(np.imag(rho.mat)).max() > 0.01  # complex coherences
    re = np.array([-2.1, -0.7, 0.0, 1e-9, 1.4])
    im = np.array([-1.6, -1e-9, 0.0, 7e-10, 0.9])
    wm = wigner_map(rho, re, im)
    for i, x in enumerate(re):
        for j, y in enumerate(im):
            ref = laguerre_wigner(rho.mat, complex(x, y))
            assert abs(wm.values[i, j] - ref) < 1e-12
            assert abs(wigner_point(rho, complex(x, y)) - ref) < 1e-12


@pytest.mark.parametrize("seed,dim", [(3, 5), (17, 12)])
def test_wigner_map_shares_radii_bitwise(seed, dim):
    # beta = 0, the +-Re and +-Im mirror points and 0.75+1i, 1+0.75i,
    # 1.25 (|beta| = 1.25 in every case) share x = 4|beta|^2 bit for
    # bit; each point must come out as it does beside a point (im = 9)
    # whose radius it does not share
    rho = random_density(seed, dim)
    assert np.abs(np.imag(rho.mat)).max() > 0.01  # complex coherences
    grid = 0.25 * np.array([-5.0, -4.0, -3.0, 0.0, 3.0, 4.0, 5.0])
    x = 4.0 * (grid[:, None] ** 2 + grid[None, :] ** 2)
    assert x[4, 5] == x[5, 4] == x[6, 3] and np.unique(x).size < x.size / 3
    wm = wigner_map(rho, grid, grid)
    alone = [[wigner_map(rho, [a], [b, 9.0]).values[0, 0] for b in grid] for a in grid]
    assert np.array_equal(wm.values, np.array(alone))
    points = [[wigner_point(rho, complex(a, b)) for b in grid] for a in grid]
    assert np.array_equal(wm.values, np.array(points))
    # W_rho(beta*) = W_{rho*}(beta): the mirror im -> -im is not a symmetry of W
    conj = DensityMatrix(rho.layout, rho.mat.conj())
    mirrored = wigner_map(conj, grid, grid).values[:, ::-1]
    assert np.max(np.abs(wm.values - mirrored)) < 1e-14
    assert np.max(np.abs(wm.values - wm.values[:, ::-1])) > 1e-3


def test_wigner_fock_states_match_laguerre_closed_form():
    # W of |n> is (2/pi) (-1)^n e^(-2|beta|^2) L_n(4|beta|^2); the grid
    # holds |beta| = 0, 1 (1 and 0.6+0.8i), 3 (-3 and 3i) and 5 (-5, 3-4i
    # and -3-4i), among other points
    re = np.array([-5.0, -3.0, 0.0, 0.6, 1.0, 3.0])
    im = np.array([-4.0, 0.0, 0.8, 3.0])
    beta2 = re[:, None] ** 2 + im[None, :] ** 2
    for r in (0.0, 1.0, 3.0, 5.0):
        assert np.any(np.isclose(beta2, r**2, rtol=0, atol=1e-12))
    for n in range(40):
        ref = TWO_OVER_PI * (-1) ** n * np.exp(-2.0 * beta2) * special.eval_laguerre(n, 4.0 * beta2)
        assert np.max(np.abs(wigner_map(fock_density(n, 40), re, im).values - ref)) < 1e-12


def test_wigner_splitter_anti_diagonals_are_orthogonal():
    # below the cutoff each anti-diagonal holds every m = 0..N, and
    # [<j, N-j|U|m, N-m>] is a real orthogonal matrix
    for n, b in enumerate(tomography._splitter(40)):
        if n < 40:
            assert b.shape == (n + 1, n + 1)
            assert np.max(np.abs(b @ b.T - np.eye(n + 1))) < 1e-13


def test_wigner_reads_the_upper_triangle_of_a_non_hermitian_rho():
    # rho_mn with m > n is taken as conj(rho_nm), as the Laguerre sum over
    # m <= n does
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = DensityMatrix(SpaceLayout((12,)), mat / 30.0)
    assert np.max(np.abs(mat - mat.conj().T)) > 1.0
    re = np.array([-1.2, 0.0, 0.7])
    im = np.array([-0.9, 0.3, 1.6])
    wm = wigner_map(rho, re, im)
    for i, x in enumerate(re):
        for j, y in enumerate(im):
            assert abs(wm.values[i, j] - laguerre_wigner(mat / 30.0, complex(x, y))) < 1e-12


def test_wigner_point_is_its_value_in_any_map():
    # each value is one einsum dot of length 2d - 1, whatever the shape
    # of the grid: a point alone rounds as it does inside a map
    rho = random_density(20, 40)
    re = np.array([-2.1, -0.7, 0.0, 1.4, 4.5])
    im = np.array([-1.6, 0.0, 0.9, 2.5])
    wm = wigner_map(rho, re, im)
    points = [[wigner_point(rho, complex(a, b)) for b in im] for a in re]
    assert np.array_equal(wm.values, np.array(points))
