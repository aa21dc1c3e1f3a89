import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbath.analysis import (
    _entropy_bits,
    branch_from_tomo,
    psd_project,
    reservoir_distinguishability,
    trace_distance,
    von_neumann_entropy,
)
from catbath.dynamics import ReservoirSpec, branch_amplitudes
from catbath.hilbert import DensityMatrix, SpaceLayout

from conftest import LAMBDA_HALF_TABLE, MHZ, NS

Q = SpaceLayout((2,))
GG = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
EE = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def random_qubit_state(rng) -> DensityMatrix:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = m @ m.conj().T
    m /= np.trace(m).real
    return DensityMatrix(Q, m)


def pure(vec) -> DensityMatrix:
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(Q, np.outer(vec, vec.conj()))


def test_trace_distance_basics():
    a = DensityMatrix(Q, GG)
    assert trace_distance(a, a) == 0.0
    assert trace_distance(a, DensityMatrix(Q, EE)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        trace_distance(a, DensityMatrix(SpaceLayout((2, 2)), np.eye(4) / 4))


def test_trace_distance_pure_state_overlap_formula(rng):
    for _ in range(30):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        d = trace_distance(pure(u), pure(v))
        assert d == pytest.approx(math.sqrt(1 - abs(np.vdot(u, v)) ** 2), abs=1e-9)


def test_trace_distance_metric_axioms(rng):
    triples = [
        (random_qubit_state(rng), random_qubit_state(rng), random_qubit_state(rng))
        for _ in range(50)
    ]
    for a, b, c in triples:
        dab = trace_distance(a, b)
        assert abs(dab - trace_distance(b, a)) < 1e-9
        assert trace_distance(a, a) < 1e-9
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-9
        assert -1e-9 <= dab <= 1 + 1e-9


def test_entropy_values():
    assert von_neumann_entropy(DensityMatrix(Q, GG)) == 0.0
    assert von_neumann_entropy(DensityMatrix(Q, np.eye(2) / 2)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        von_neumann_entropy(DensityMatrix(Q, np.diag([1.5, -0.5]).astype(complex)))


def test_entropy_of_a_stack_matches_one_at_a_time(rng):
    states = [random_qubit_state(rng) for _ in range(10)] + [DensityMatrix(Q, GG)]
    stack = _entropy_bits(np.array([rho.mat for rho in states]))
    assert stack.shape == (11,)
    assert stack.tolist() == [von_neumann_entropy(rho) for rho in states]
    # a pure state is +0.0, which a CSV prints as 0 rather than -0
    assert math.copysign(1.0, stack[-1]) == 1.0
    with pytest.raises(ValueError, match="negative eigenvalue"):
        _entropy_bits(np.array([GG, np.diag([1.5, -0.5]).astype(complex)]))


def test_entropy_unitary_invariance(rng):
    for _ in range(20):
        rho = random_qubit_state(rng)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = h + h.conj().T
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        rot = DensityMatrix(Q, u @ rho.mat @ u.conj().T)
        assert von_neumann_entropy(rot) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )


def test_psd_project_clip_and_fixed_point():
    raw = DensityMatrix(Q, np.diag([1.2, -0.2]).astype(complex))
    out = psd_project(raw)
    assert np.allclose(out.mat, np.diag([1.0, 0.0]))
    rho = pure([1.0, 1.0])
    assert np.max(np.abs(psd_project(rho).mat - rho.mat)) < 1e-12
    with pytest.raises(ValueError):
        psd_project(DensityMatrix(Q, -np.eye(2).astype(complex)))


def _psd_project_2x2_oracle(mat):
    # closed form for a Hermitian 2x2: clip the two eigenvalues
    tr = mat[0, 0].real + mat[1, 1].real
    det = np.linalg.det(mat).real
    disc = math.sqrt(max(0.0, tr * tr / 4 - det))
    lam = np.array([tr / 2 - disc, tr / 2 + disc])
    w, v = np.linalg.eigh(mat)
    assert np.allclose(sorted(w), sorted(lam), atol=1e-10)
    w = np.clip(w, 0, None)
    return (v * (w / w.sum())) @ v.conj().T


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_psd_project_random_perturbations(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = (m + m.conj().T) / 2
    m += np.eye(2) * (0.8 - min(0.0, np.linalg.eigvalsh(m).min()))  # keep projectable
    raw = DensityMatrix(Q, m)
    out = psd_project(raw)
    assert np.linalg.eigvalsh(out.mat).min() > -1e-12
    assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)
    again = psd_project(out)
    assert np.max(np.abs(again.mat - out.mat)) < 1e-12
    assert np.max(np.abs(out.mat - _psd_project_2x2_oracle(m))) < 1e-9


def test_branch_from_tomo_algebra():
    mixed = DensityMatrix(Q, 0.5 * GG + 0.5 * EE)
    assert np.allclose(branch_from_tomo(mixed).mat, EE)
    assert np.allclose(branch_from_tomo(DensityMatrix(Q, GG)).mat, GG)


def test_branch_from_tomo_recovers_analytic_branch():
    spec = ReservoirSpec((8.1 * MHZ,), (0.0,), 3.3**2)
    ba = branch_amplitudes(0, 19e-9, spec)
    phi = np.array([ba.c_g, ba.c_e])
    branch = pure(phi)
    tomo = DensityMatrix(Q, 0.5 * GG + 0.5 * branch.mat)
    rec = branch_from_tomo(tomo)
    fid = float(np.real(phi.conj() @ rec.mat @ phi))
    assert fid > 0.99


def test_reservoir_distinguishability_edges():
    assert reservoir_distinguishability([DensityMatrix(Q, GG)] * 3) == pytest.approx(
        0.0, abs=1e-12
    )
    rng = np.random.default_rng(5)
    branches = [DensityMatrix(Q, EE)] + [random_qubit_state(rng) for _ in range(3)]
    assert reservoir_distinguishability(branches) == pytest.approx(1.0, abs=1e-9)
    # no 2^N x 2^N matrix is formed, so large registers run: D against the
    # pure-branch closed form at N = 13 and N = 20
    for n in (13, 20):
        branches, prod = _pure_branches(_table_spec(n), 3e-9)
        d = reservoir_distinguishability(branches)
        assert d == pytest.approx(math.sqrt(1 - prod), abs=1e-12)
    with pytest.raises(ValueError):
        reservoir_distinguishability([])


def test_distinguishability_rejects_more_than_20_branches():
    # 2^21 product eigenvalues would be formed; the cap stops it first
    with pytest.raises(ValueError, match="21 branches exceed the limit of 20"):
        reservoir_distinguishability([DensityMatrix(Q, GG)] * 21)


def _kron_oracle(branches) -> float:
    """Dense trace distance between the kron product and |g...g><g...g|."""
    layout = SpaceLayout((2,) * len(branches))
    rho = functools.reduce(np.kron, [b.mat for b in branches])
    ground = functools.reduce(np.kron, [GG] * len(branches))
    return trace_distance(DensityMatrix(layout, rho), DensityMatrix(layout, ground))


def _table_spec(n: int) -> ReservoirSpec:
    lams = [2.0 * LAMBDA_HALF_TABLE[k % 8] * MHZ for k in range(n)]
    return ReservoirSpec(tuple(lams), (0.0,) * n, 3.3**2)


def _pure_branches(spec: ReservoirSpec, t: float):
    """Branch states at t and prod_k |c_g|^2 from their amplitudes."""
    amps = [branch_amplitudes(k, t, spec) for k in range(spec.n_qubits)]
    prod = math.prod(abs(ba.c_g) ** 2 for ba in amps)
    return [pure([ba.c_g, ba.c_e]) for ba in amps], prod


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_distinguishability_matches_kron_oracle(seed, n):
    # random mixed, pure and near-ground branches against the dense path
    rng = np.random.default_rng(seed)
    branches = []
    for _ in range(n):
        kind = rng.integers(3)
        if kind == 0:
            rho = random_qubit_state(rng)
        elif kind == 1:
            rho = pure(rng.normal(size=2) + 1j * rng.normal(size=2))
        else:
            mat = GG + 1e-6 * rng.random() * random_qubit_state(rng).mat
            rho = DensityMatrix(Q, mat / np.trace(mat).real)
        branches.append(rho)
    d = reservoir_distinguishability(branches)
    assert abs(d - _kron_oracle(branches)) < 1e-12


def test_distinguishability_pure_closed_form_n8():
    # the time grid of `catbath decohere --n-qubits 8 --t-max 200 --dt 0.5`
    spec = _table_spec(8)
    worst = 0.0
    for t in np.arange(0.0, 200.25, 0.5) * NS:
        branches, prod = _pure_branches(spec, t)
        worst = max(worst, abs(reservoir_distinguishability(branches) - math.sqrt(1 - prod)))
    assert worst < 1e-12


def test_distinguishability_exact_edges():
    ground, excited = DensityMatrix(Q, GG), DensityMatrix(Q, EE)
    assert reservoir_distinguishability([ground] * 8) == 0.0
    rng = np.random.default_rng(7)
    others = [random_qubit_state(rng) for _ in range(5)]
    assert reservoir_distinguishability(others[:2] + [excited] + others[2:]) == 1.0
    assert reservoir_distinguishability([ground] * 3 + [excited]) == 1.0


def test_distinguishability_rejects_unphysical_branch():
    bad = DensityMatrix(Q, np.diag([1.1, -0.1]).astype(complex))
    with pytest.raises(ValueError, match="qubit 2"):
        reservoir_distinguishability([DensityMatrix(Q, GG)] * 2 + [bad])
    with pytest.raises(ValueError, match="qubit 0"):
        reservoir_distinguishability([DensityMatrix(Q, np.array([[1, 1], [0, 0]]))])
    with pytest.raises(ValueError, match="qubit 1"):
        reservoir_distinguishability([DensityMatrix(Q, GG), DensityMatrix(Q, 0.4 * GG)])


def test_distinguishability_emits_no_warnings():
    rng = np.random.default_rng(11)
    cases = [
        [DensityMatrix(Q, GG)] * 4,
        [DensityMatrix(Q, EE), random_qubit_state(rng)],
        [pure([1.0, 1e-9])] * 3,
        [random_qubit_state(rng) for _ in range(6)],
        _pure_branches(_table_spec(8), 37e-9)[0],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for branches in cases:
            assert 0.0 <= reservoir_distinguishability(branches) <= 1.0


def test_distinguishability_product_identity(rng):
    # for pure product branches, D = sqrt(1 - prod |c_g|^2)
    spec = ReservoirSpec(
        (8.1 * MHZ, 6.6 * MHZ, 4.2 * MHZ), (0.0, 1.0 * MHZ, 0.0), 3.3**2
    )
    for t in (5e-9, 13e-9, 29e-9):
        branches = []
        prod = 1.0
        for k in range(3):
            ba = branch_amplitudes(k, t, spec)
            branches.append(pure([ba.c_g, ba.c_e]))
            prod *= abs(ba.c_g) ** 2
        d = reservoir_distinguishability(branches)
        assert d == pytest.approx(math.sqrt(1 - prod), abs=1e-9)
