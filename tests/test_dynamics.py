import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbath import cli
from catbath.analysis import von_neumann_entropy
from catbath.config import load_config
from catbath.dynamics import (
    _TIME_CHUNK,
    ReservoirSpec,
    _reservoir_operator,
    analytic_joint_state,
    analytic_qubit_states,
    branch_amplitudes,
    branch_states,
    cat_with_ground_qubits,
    coherence_factor,
    evolve_excitation_blocks,
    reduced_field_state,
    reduced_qubit_state,
    reservoir_hamiltonian,
)
from catbath.hilbert import (
    SpaceLayout,
    StateVector,
    TruncationWarning,
    _chebyshev_operator,
    _chebyshev_propagate,
    coherent_state,
    evolve,
    fidelity,
)

from conftest import LAMBDA_HALF_TABLE, MHZ, NS, photon_resolved_coh

DEVICE_YAML = Path(__file__).parent.parent / "configs" / "device.yaml"

ALPHA = 3.3
N_MEAN = ALPHA**2


def r1_spec() -> ReservoirSpec:
    return ReservoirSpec((8.1 * MHZ,), (0.0,), N_MEAN)


def table_spec(n: int) -> ReservoirSpec:
    lams = tuple(2.0 * lh * MHZ for lh in LAMBDA_HALF_TABLE[:n])
    return ReservoirSpec(lams, (0.0,) * n, N_MEAN)


@pytest.fixture(autouse=True)
def _quiet_truncation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        yield


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["couplings", "detunings", "n_mean"])
def test_reservoir_spec_rejects_non_finite(field, bad):
    kwargs = {"couplings": (8.2 * MHZ, 6.6 * MHZ), "detunings": (0.0, 0.0), "n_mean": N_MEAN}
    kwargs[field] = bad if field == "n_mean" else (kwargs[field][0], bad)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ReservoirSpec(**kwargs)


def test_reservoir_spec_validation():
    with pytest.raises(ValueError):
        ReservoirSpec((1.0,), (0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        ReservoirSpec((-1.0,), (0.0,), 1.0)
    with pytest.raises(ValueError):
        ReservoirSpec((), (), 1.0)


def test_hamiltonian_jc_splitting():
    spec = r1_spec()
    h = reservoir_hamiltonian(spec, 6)
    w = np.linalg.eigvalsh(h.mat)
    # each n-excitation manifold splits by sqrt(n) lambda
    for n in range(1, 6):
        split = math.sqrt(n) * 8.1 * MHZ
        assert np.min(np.abs(w - split / 2)) < 1e-3
        assert np.min(np.abs(w + split / 2)) < 1e-3


def test_hamiltonian_conserves_excitation_number():
    spec = table_spec(2)
    cutoff = 6
    h = reservoir_hamiltonian(spec, cutoff)
    layout = h.layout
    num = np.zeros((layout.dim, layout.dim), dtype=complex)
    for idx in range(layout.dim):
        lv = np.unravel_index(idx, layout.dims)
        num[idx, idx] = lv[0] + sum(lv[1:])
    assert np.max(np.abs(h.mat @ num - num @ h.mat)) < 1e-10 * np.max(np.abs(h.mat))


def test_hamiltonian_vs_kron_oracle():
    # independent construction by explicit Kronecker products, N=2
    spec = table_spec(2)
    cutoff = 5
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)
    seg = np.array([[0, 0], [1, 0]], dtype=complex)
    eye2 = np.eye(2)
    l1, l2 = spec.couplings
    ref = l1 / 2 * np.kron(a, np.kron(seg, eye2)) + l2 / 2 * np.kron(
        a, np.kron(eye2, seg)
    )
    ref = ref + ref.conj().T
    h = reservoir_hamiltonian(spec, cutoff)
    assert np.max(np.abs(h.mat - ref)) < 1e-12 * np.max(np.abs(ref))
    assert np.allclose(np.linalg.eigvalsh(h.mat), np.linalg.eigvalsh(ref))


def test_hamiltonian_dimension_guard():
    spec = table_spec(8)
    with pytest.raises(ValueError, match="blocks"):
        reservoir_hamiltonian(spec, 40)


def test_branch_amplitudes_basics():
    spec = r1_spec()
    ba0 = branch_amplitudes(0, 0.0, spec)
    assert ba0.c_g == 1.0 and ba0.c_e == 0.0
    ba = branch_amplitudes(0, math.pi / ba0.omega_k, spec)
    assert abs(ba.c_g) < 1e-12
    assert abs(ba.c_e) == pytest.approx(1.0, abs=1e-12)


def test_branch_rabi_frequency_published():
    ba = branch_amplitudes(0, 1e-9, r1_spec())
    assert ba.omega_k / MHZ == pytest.approx(26.7, abs=0.05)
    assert 2 * math.pi / ba.omega_k / NS == pytest.approx(38.0, abs=1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 200e-9),
    st.floats(1.0, 20.0),
    st.floats(-5.0, 5.0),
)
def test_branch_normalization_identity(t, lam_mhz, delta_mhz):
    spec = ReservoirSpec((lam_mhz * MHZ,), (delta_mhz * MHZ,), N_MEAN)
    ba = branch_amplitudes(0, t, spec)
    assert abs(ba.c_g) ** 2 + abs(ba.c_e) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_zero_rabi_limit():
    spec = ReservoirSpec((1.0 * MHZ,), (0.0,), 0.0)  # <n> = 0, delta = 0
    ba = branch_amplitudes(0, 50e-9, spec)
    assert ba.c_g == 1.0 and ba.c_e == 0.0


def test_analytic_joint_state_t0():
    spec = r1_spec()
    psi = analytic_joint_state(0.0, ALPHA, spec, 30)
    assert fidelity(psi, cat_with_ground_qubits(ALPHA, spec, 30)) > 1 - 1e-9
    with pytest.raises(ValueError, match="nonnegative"):
        analytic_joint_state(-1e-9, ALPHA, spec, 30)


def test_analytic_entropy_peak_at_19ns():
    spec = r1_spec()
    psi = analytic_joint_state(19e-9, ALPHA, spec, 30)
    s = von_neumann_entropy(reduced_qubit_state(psi, 0))
    assert s > 0.99


def test_leakage_warning():
    # a huge register soaks up excitation comparable to <n>
    spec = ReservoirSpec((8.1 * MHZ,) * 8, (0.0,) * 8, 4.0)
    with pytest.warns(UserWarning, match="branch model"):
        analytic_joint_state(11e-9, 2.0, spec, 12)


def test_coherence_factor_values():
    spec = r1_spec()
    assert coherence_factor(0.0, spec) == 1.0
    omega = branch_amplitudes(0, 0.0, spec).omega_k
    assert abs(coherence_factor(2 * math.pi / omega, spec)) == pytest.approx(
        1.0, abs=1e-12
    )
    # N=8: washed out without revival
    spec8 = table_spec(8)
    ts = np.arange(25.0, 200.0, 0.25) * NS
    vals = [abs(coherence_factor(t, spec8)) for t in ts[ts > 25 * NS]]
    assert max(vals) < 0.2
    # a whole grid in one call matches the scalar calls, detuned qubits included
    detunings = (-2.2, 1.4, 3.1, -0.7, 0.9, -1.6, 2.5, 0.3)
    detuned = ReservoirSpec(spec8.couplings, tuple(d * MHZ for d in detunings), N_MEAN)
    grid = np.linspace(0.0, 200.0, 81) * NS
    on_grid = coherence_factor(grid, detuned)
    assert on_grid.shape == grid.shape
    pointwise = np.array([coherence_factor(t, detuned) for t in grid])
    assert np.max(np.abs(on_grid - pointwise)) < 1e-15
    assert type(coherence_factor(7e-9, detuned)) is complex
    with pytest.raises(ValueError, match="nonnegative"):
        coherence_factor(np.array([0.0, 5e-9, -1e-12, 9e-9]), detuned)


def test_exact_excitation_number_conserved():
    spec = r1_spec()
    cutoff = 20
    h = reservoir_hamiltonian(spec, cutoff)
    psi0 = cat_with_ground_qubits(2.0, spec, cutoff)
    layout = h.layout
    nvals = np.array(
        [lv[0] + sum(lv[1:]) for lv in np.ndindex(*layout.dims)], dtype=float
    )
    n0 = float(nvals @ np.abs(psi0.amps) ** 2)
    for t in (7e-9, 23e-9, 61e-9):
        psi = evolve(h, psi0, t)
        assert nvals @ np.abs(psi.amps) ** 2 == pytest.approx(n0, abs=1e-8)


def test_exact_qubit_oscillation_period():
    # P_e oscillates at 2 pi / Omega within 3% over the first two periods
    spec = r1_spec()
    h = reservoir_hamiltonian(spec, 30)
    psi0 = cat_with_ground_qubits(ALPHA, spec, 30)
    omega = branch_amplitudes(0, 0.0, spec).omega_k
    period = 2 * math.pi / omega
    ts = np.linspace(0, 2.2 * period, 300)
    pe = np.array(
        [reduced_qubit_state(evolve(h, psi0, t), 0).mat[1, 1].real for t in ts]
    )
    peaks = [
        ts[i]
        for i in range(1, len(ts) - 1)
        if pe[i] > pe[i - 1] and pe[i] > pe[i + 1] and pe[i] > 0.2
    ]
    assert len(peaks) >= 2
    assert peaks[0] == pytest.approx(period / 2, rel=0.03)
    assert peaks[1] - peaks[0] == pytest.approx(period, rel=0.03)


def test_collapse_kills_cross_branch_coherence():
    # the |0><alpha| block of the reduced field state dies at t = 19 ns
    spec = r1_spec()
    cutoff = 30
    h = reservoir_hamiltonian(spec, cutoff)
    psi0 = cat_with_ground_qubits(ALPHA, spec, cutoff)
    coh = coherent_state(ALPHA, cutoff).amps

    def cross_block(t):
        rf = reduced_field_state(evolve(h, psi0, t)).mat
        return abs(rf[0] @ coh)

    assert cross_block(19e-9) < 0.02 * cross_block(0.0)


def test_block_evolution_matches_dense():
    # distinct nonzero detunings catch a detuning put on the wrong qubit
    lams = table_spec(3).couplings
    specs = [
        table_spec(2),
        ReservoirSpec(lams[:2], (1.5 * MHZ, -0.7 * MHZ), N_MEAN),
        ReservoirSpec(lams, (1.5 * MHZ, -0.7 * MHZ, 3.1 * MHZ), N_MEAN),
    ]
    cutoff = 12
    for spec in specs:
        h = reservoir_hamiltonian(spec, cutoff)
        psi0 = cat_with_ground_qubits(2.0, spec, cutoff)
        for t in (9e-9, 27e-9):
            dense = evolve(h, psi0, t)
            blocked = evolve_excitation_blocks(spec, psi0, t, cutoff)
            assert np.linalg.norm(dense.amps - blocked.amps) < 1e-10


def test_block_evolution_n8_runs():
    spec = table_spec(8)
    cutoff = 20
    psi0 = cat_with_ground_qubits(2.0, spec, cutoff)
    out = evolve_excitation_blocks(spec, psi0, 10e-9, cutoff)
    assert out.norm == pytest.approx(1.0, abs=1e-10)
    # population of each excitation number a^dag a + sum_k |e><e|_k is conserved
    levels = np.unravel_index(np.arange(psi0.layout.dim), psi0.layout.dims)
    excitation = levels[0] + sum(levels[1:])
    before = np.bincount(excitation, np.abs(psi0.amps) ** 2)
    after = np.bincount(excitation, np.abs(out.amps) ** 2)
    assert np.max(np.abs(after - before)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 3),
    st.integers(2, 12),
    st.floats(0.0, 100.0),
)
def test_block_engine_properties(seed, n, cutoff, t_ns):
    # random couplings, detunings and initial state: the block engine is
    # unitary, conserves each excitation number and matches dense evolve
    rng = np.random.default_rng(seed)
    spec = ReservoirSpec(
        tuple(rng.uniform(2.0, 10.0, n) * MHZ), tuple(rng.uniform(-5.0, 5.0, n) * MHZ),
        N_MEAN,
    )
    layout = SpaceLayout((cutoff,) + (2,) * n)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    psi0 = StateVector(layout, amps / np.linalg.norm(amps))
    out = evolve_excitation_blocks(spec, psi0, t_ns * NS, cutoff)
    assert abs(out.norm - 1.0) < 1e-12
    levels = np.unravel_index(np.arange(layout.dim), layout.dims)
    excitation = levels[0] + sum(levels[1:])
    before = np.bincount(excitation, np.abs(psi0.amps) ** 2)
    after = np.bincount(excitation, np.abs(out.amps) ** 2)
    assert np.max(np.abs(after - before)) < 1e-12
    dense = evolve(reservoir_hamiltonian(spec, cutoff), psi0, t_ns * NS)
    assert np.max(np.abs(dense.amps - out.amps)) < 1e-12


def _random_state(layout: SpaceLayout, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def _block_eigh_oracle(spec: ReservoirSpec, psi: StateVector, t: float) -> np.ndarray:
    """exp(-iHt) psi by one dense eigh per total excitation number.

    Each block is built from the basis tuples (n, b_0, ..., b_{N-1})
    themselves: an excited qubit k in |n, b> couples to |n+1, b without
    k> at lambda_k/2 sqrt(n+1).
    """
    layout = psi.layout
    cutoff, n_q = layout.dims[0], spec.n_qubits
    blocks: dict[int, list[tuple]] = {}
    for levels in np.ndindex(*layout.dims):
        blocks.setdefault(sum(levels), []).append(levels)
    out = np.zeros(layout.dim, dtype=complex)
    for states in blocks.values():
        idx = [layout.index(s) for s in states]
        if not psi.amps[idx].any():
            continue  # exp(-iHt) keeps a zero block zero
        pos = {s: i for i, s in enumerate(states)}
        h = np.zeros((len(states), len(states)))
        for i, (n, *b) in enumerate(states):
            h[i, i] = sum(d for d, bk in zip(spec.detunings, b) if bk)
            for k in range(n_q):
                if b[k] and n + 1 < cutoff:
                    j = pos[(n + 1, *b[:k], 0, *b[k + 1 :])]
                    h[i, j] = h[j, i] = spec.couplings[k] / 2.0 * math.sqrt(n + 1.0)
        w, v = np.linalg.eigh(h)
        out[idx] = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi.amps[idx]))
    return out


def test_engine_matches_block_eigh_oracle_n8():
    # cutoff 20 at N = 8: the middle blocks hold all 256 qubit patterns
    detunings = (-2.2, 1.4, 3.1, -0.7, 0.9, -1.6, 2.5, 0.3)
    spec = ReservoirSpec(table_spec(8).couplings, tuple(d * MHZ for d in detunings), N_MEAN)
    psi0 = _random_state(SpaceLayout((20,) + (2,) * 8), 8)
    t = 137.3 * NS
    out = evolve_excitation_blocks(spec, psi0, t, 20)
    assert np.max(np.abs(out.amps - _block_eigh_oracle(spec, psi0, t))) < 1e-12
    # one full middle level at 1 us: the series is bound on its 256 rows only
    single = StateVector(psi0.layout, np.where(_excitation(psi0.layout) == 10, psi0.amps, 0.0))
    out = evolve_excitation_blocks(spec, single, 1e-6, 20)
    assert np.max(np.abs(out.amps - _block_eigh_oracle(spec, single, 1e-6))) < 1e-12


def test_resonant_engine_matches_block_eigh_oracle_n8():
    # at delta = 0, H has no diagonal and takes each qubit-parity half to
    # the other: the cat (x) |G> lies on the even half, so each term is one
    # half-size product, and a random complex state fills both halves
    spec = table_spec(8)
    cutoff = 20
    cat = cat_with_ground_qubits(ALPHA, spec, cutoff)
    mixed = _random_state(cat.layout, 88)
    for psi0, t in ((cat, 7.8 * NS), (cat, 155.4 * NS), (mixed, 61.3 * NS)):
        out = evolve_excitation_blocks(spec, psi0, t, cutoff)
        assert np.max(np.abs(out.amps - _block_eigh_oracle(spec, psi0, t))) < 1e-12


def _parity(patterns: np.ndarray) -> np.ndarray:
    return np.array([bin(b).count("1") % 2 for b in patterns.ravel()]).reshape(patterns.shape)


def _grid_couplings(start: np.ndarray, weight: np.ndarray):
    """(row, col, value) of every nonzero weight of a table over both grids.

    start (2, S, P) counts in the buffer of both grids, the even one
    first, so element start + w of it is grid element start + w - 1 of
    the two grids flattened; rows and columns are indices there.
    """
    half, slot, p, w = np.nonzero(weight)
    row = np.ravel_multi_index((half, p, w), weight.shape[:1] + weight.shape[2:])
    return row, start[half, slot, p] + w - 1, weight[half, slot, p, w]


def _basis_of_grids(patterns: np.ndarray, cutoff: int, n_qubits: int) -> np.ndarray:
    """Basis index n 2^N + b of each grid column n + 1 of each pattern b, -1 on the pads."""
    index = np.full(patterns.shape + (cutoff + 2,), -1)
    index[..., 1:-1] = np.arange(cutoff) * 2**n_qubits + patterns[..., None]
    return index.ravel()


def test_resonant_operator_stores_no_diagonal_and_half_the_couplings():
    # N = 8, cutoff 40: on the levels of the cat, 36 352 couplings, each
    # once in the even table B and once in the odd table B^T, with no diagonal
    spec = table_spec(8)
    cutoff = 40
    patterns, (c, r, starts) = _reservoir_operator(spec, cutoff)
    (even, odd, (b, b_t)), (odd_start, even_other, odd_tables) = starts
    assert c == 0.0 and b[2] is None and b_t[2] is None
    assert (even, odd, odd_start, even_other) == (0, 1, 1, 0)
    assert odd_tables[0] is b_t and odd_tables[1] is b
    start, weight = np.stack([b[0], b_t[0]]), np.stack([b[1], b_t[1]])
    assert start.shape == (2, 8, 128) and weight.shape == (2, 8, 128, cutoff + 2)
    assert all(a.flags.c_contiguous for table in (b, b_t) for a in table[:2])
    # the halves are the patterns of even and of odd qubit parity, each in order
    assert np.array_equal(_parity(patterns), [[0] * 128, [1] * 128])
    assert np.all(np.diff(patterns, axis=1) > 0)
    # the pads carry no weight, nor qubit k's missing partner a photon up
    # from n = cutoff - 1; every window lies in its buffer
    assert not weight[..., [0, -1]].any()
    excited = (patterns[:, None, :] >> np.arange(7, -1, -1)[:, None]) & 1
    assert not weight[..., cutoff][excited == 1].any()
    assert 0 <= start.min() and start.max() + cutoff + 2 <= 128 * (cutoff + 2) + 2
    # on the cat's rows (n + popcount(b) < cutoff) each half lists 36 352
    popcount = np.array([bin(p).count("1") for p in patterns.ravel()]).reshape(2, 128)
    n = np.arange(-1, cutoff + 1)
    occupied = (n >= 0) & (n + popcount[..., None] < cutoff)
    assert [np.count_nonzero(weight[h][:, occupied[h]]) for h in (0, 1)] == [36_352, 36_352]
    # 2H~ is exactly symmetric: each coupling lands on its other end with one
    # weight (in the buffer of both grids, the even half's windows move one grid on)
    shift = np.array([128 * (cutoff + 2), 0])[:, None, None]
    row, col, value = _grid_couplings(start + shift, weight)
    forward, backward = np.lexsort((col, row)), np.lexsort((row, col))
    assert np.array_equal(row[forward], col[backward])
    assert np.array_equal(col[forward], row[backward])
    assert np.array_equal(value[forward], value[backward])


def test_detuned_operator_keeps_each_halfs_diagonal():
    # a detuning on one qubit gives H a diagonal, which mixes the halves:
    # one start over both grids with one table over both, whose diagonal
    # has entries in both halves, and which is 2H~ of the dense
    # Hamiltonian on the basis rows
    spec = ReservoirSpec(table_spec(3).couplings, (0.0, 2.0 * MHZ, 0.0), N_MEAN)
    cutoff = 6
    patterns, (c, r, starts) = _reservoir_operator(spec, cutoff)
    ((here, there, (whole, same)),) = starts
    start, weight, diagonal = whole
    assert here == there == slice(None) and same is whole
    assert start.shape == (2, 3, 4) and weight.shape == (2, 3, 4, cutoff + 2)
    assert diagonal.shape == (2, 4, 1)
    assert weight.flags.c_contiguous and not weight[..., [0, -1]].any()
    assert np.any(diagonal[0] != 0) and np.any(diagonal[1] != 0)
    row, col, value = _grid_couplings(start, weight)
    two_h = np.diag(np.broadcast_to(diagonal, (2, 4, cutoff + 2)).ravel())
    np.add.at(two_h, (row, col), value)
    assert np.array_equal(two_h, two_h.T)
    basis = _basis_of_grids(patterns, cutoff, 3)
    body = basis >= 0
    # no pad row or column carries a coupling
    assert not two_h[~body][:, body].any() and not two_h[body][:, ~body].any()
    h = reservoir_hamiltonian(spec, cutoff).mat.real[np.ix_(basis[body], basis[body])]
    dim = h.shape[0]
    assert np.max(np.abs(two_h[np.ix_(body, body)] - 2.0 * (h - c * np.eye(dim)) / r)) < 1e-14
    # [c - r, c + r] is the Gershgorin interval of h
    radius = np.abs(h).sum(axis=1) - np.abs(np.diag(h))
    lo, hi = np.min(np.diag(h) - radius), np.max(np.diag(h) + radius)
    assert abs(c - (hi + lo) / 2.0) <= 1e-14 * r and abs(r - (hi - lo) / 2.0) <= 1e-14 * r
    layout = SpaceLayout((cutoff,) + (2,) * 3)
    psi0 = _random_state(layout, 3)
    dense = evolve(reservoir_hamiltonian(spec, cutoff), psi0, 47.0 * NS)
    out = evolve_excitation_blocks(spec, psi0, 47.0 * NS, cutoff)
    assert np.max(np.abs(out.amps - dense.amps)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("detuned", [False, True])
def test_gershgorin_bound_is_the_whole_table(n, detuned):
    # r and c against the Gershgorin interval of the dense Hamiltonian
    # over all its rows, and a state on level 0 and one on the top level
    # m = cutoff + n - 1 against dense evolution: a phantom partner a
    # photon up from n = cutoff - 1 would widen r, and a pad that picked
    # up a value would show in the state
    detunings = (1.5 * MHZ, -0.7 * MHZ, 3.1 * MHZ)[:n] if detuned else (0.0,) * n
    spec = ReservoirSpec(table_spec(n).couplings, detunings, N_MEAN)
    cutoff = 5
    layout = SpaceLayout((cutoff,) + (2,) * n)
    h = reservoir_hamiltonian(spec, cutoff)
    c, r, _ = _reservoir_operator(spec, cutoff)[1]
    mat = h.mat.real
    radius = np.abs(mat).sum(axis=1) - np.abs(np.diag(mat))
    lo, hi = np.min(np.diag(mat) - radius), np.max(np.diag(mat) + radius)
    scale = max(abs(lo), abs(hi))
    assert abs(c - (hi + lo) / 2.0) <= 1e-14 * scale
    assert abs(r - (hi - lo) / 2.0) <= 1e-14 * scale
    excitation = _excitation(layout)
    psi = _random_state(layout, n)
    for level in (0, cutoff + n - 1):
        state = StateVector(layout, np.where(excitation == level, psi.amps, 0.0))
        for t in (23 * NS, 140 * NS):
            out = evolve_excitation_blocks(spec, state, t, cutoff)
            assert np.max(np.abs(out.amps - evolve(h, state, t).amps)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_device_cat_series_is_bound_on_its_top_row(n):
    # the device's resonant H at cutoff 40 has c = 0, and its largest
    # radius is that of the row |cutoff - 1, G>, which the cat occupies:
    # the whole-table bound is the one the cat's own rows give
    spec = cli._reservoir_from_config(load_config(DEVICE_YAML), n)
    cutoff = 40
    c, r, _ = _reservoir_operator(spec, cutoff)[1]
    want = sum(lam / 2.0 for lam in spec.couplings) * math.sqrt(cutoff - 1)
    assert c == 0.0
    assert abs(r - want) <= 1e-15 * want


def _path_operator(diag: np.ndarray):
    """The path 0-2-1-3 of test_chebyshev_series_on_one_half as window tables.

    Rows 0 and 1 are grid rows 0 and 1 of the even half, rows 2 and 3
    those of the odd half, each one column between two pads.  Slot 0
    joins row p of each half to row p of the other, and slot 1 joins
    even row 1 to odd row 0 (amp 0 elsewhere).  Window start 3p + 1 is
    row p of the other half's buffer.
    """
    start = np.array([[[1, 4], [1, 1]], [[1, 4], [4, 1]]])
    amp = np.zeros((2, 2, 2, 3))
    amp[:, 0, :, 1] = [0.7, 0.4]
    amp[0, 1, 1, 1] = amp[1, 1, 0, 1] = -1.3
    return _chebyshev_operator(diag, start, amp)


@pytest.mark.parametrize("half", ["even", "odd"])
def test_chebyshev_series_on_one_half(half):
    # a path of four rows, 0-2-1-3, with rows 0 and 1 the even half, in two
    # slots: a vector on one half runs on alternating halves, both starts
    # agree with the dense exponential, and with a diagonal both halves
    # fill in, and the pads stay 0
    x = np.zeros(4)
    x[[0, 1] if half == "even" else [2, 3]] = [0.6, -0.8]
    grid = np.zeros((2, 2, 3))
    grid[..., 1] = x.reshape(2, 2)
    for diag in (np.zeros(4), np.array([0.0, 0.3, -0.2, 0.0])):
        h = np.diag(diag)
        h[[0, 1, 1], [2, 3, 2]] = h[[2, 3, 2], [0, 1, 1]] = [0.7, 0.4, -1.3]
        w, v = np.linalg.eigh(h)
        operator = _path_operator(diag.reshape(2, 2))
        for t in (0.9, -4.2, 30.0):
            want = v @ (np.exp(-1j * w * t) * (v.T @ x))
            got = _chebyshev_propagate(operator, t, grid)
            assert np.max(np.abs(got[..., 1].ravel() - want)) < 1e-13
            assert not got[..., [0, 2]].any()


def test_engine_long_time_matches_dense():
    # tripled couplings take the series to about a thousand terms at 1 us
    lams = tuple(3.0 * lam for lam in table_spec(2).couplings)
    spec = ReservoirSpec(lams, (1.5 * MHZ, -0.7 * MHZ), N_MEAN)
    cutoff = 40
    psi0 = cat_with_ground_qubits(ALPHA, spec, cutoff)
    dense = evolve(reservoir_hamiltonian(spec, cutoff), psi0, 1e-6)
    out = evolve_excitation_blocks(spec, psi0, 1e-6, cutoff)
    assert np.max(np.abs(out.amps - dense.amps)) < 1e-12


def test_engine_time_zero_and_reversal():
    spec = table_spec(4)
    cutoff = 20
    psi0 = _random_state(SpaceLayout((cutoff,) + (2,) * 4), 4)
    assert np.array_equal(evolve_excitation_blocks(spec, psi0, 0.0, cutoff).amps, psi0.amps)
    forward = evolve_excitation_blocks(spec, psi0, 150 * NS, cutoff)
    back = evolve_excitation_blocks(spec, forward, -150 * NS, cutoff)
    assert np.max(np.abs(back.amps - psi0.amps)) < 1e-12


def test_engine_is_complex_linear():
    # the real and the imaginary part of the state run separate real
    # series; i psi swaps them
    spec = ReservoirSpec(table_spec(3).couplings, (1.5 * MHZ, -0.7 * MHZ, 3.1 * MHZ), N_MEAN)
    psi0 = _random_state(SpaceLayout((14,) + (2,) * 3), 31)
    out = evolve_excitation_blocks(spec, psi0, 83.0 * NS, 14).amps
    rotated = StateVector(psi0.layout, 1j * psi0.amps)
    out_rotated = evolve_excitation_blocks(spec, rotated, 83.0 * NS, 14).amps
    assert np.max(np.abs(out_rotated - 1j * out)) <= 1e-15


def _excitation(layout: SpaceLayout) -> np.ndarray:
    """a^dag a + sum_k |e><e|_k of each basis index, from the layout's tuples."""
    return sum(np.unravel_index(np.arange(layout.dim), layout.dims))


@pytest.mark.parametrize(
    "part", ["real", "imaginary", "mixed", "level-0", "level-1", "level-cutoff"]
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_engine_state_parts_match_dense(part, n):
    # a purely real or imaginary state skips one of the two real series; a
    # state in one excitation level, also a level m >= cutoff, runs the
    # series of the whole table, and every other level stays exactly zero;
    # level 0 is the one row |0, G> and at N = 1 level cutoff the one row
    # |cutoff - 1, e>: neither has a coupling, so the state only takes the
    # phase of its diagonal
    spec = ReservoirSpec(
        table_spec(n).couplings, (1.5 * MHZ, -0.7 * MHZ, 3.1 * MHZ)[:n], N_MEAN
    )
    cutoff = 12
    layout = SpaceLayout((cutoff,) + (2,) * n)
    rng = np.random.default_rng(n)
    re, im = rng.normal(size=(2, layout.dim))
    excitation = _excitation(layout)
    amps = {
        "real": re,
        "imaginary": 1j * im,
        "mixed": re + 1j * im,
        "level-0": np.where(excitation == 0, re + 1j * im, 0.0),
        "level-1": np.where(excitation == 1, re + 1j * im, 0.0),
        "level-cutoff": np.where(excitation == cutoff, re + 1j * im, 0.0),
    }[part]
    psi0 = StateVector(layout, amps / np.linalg.norm(amps))
    unoccupied = ~np.isin(excitation, excitation[psi0.amps != 0])
    h = reservoir_hamiltonian(spec, cutoff)
    for t in (9e-9, -27e-9, 140e-9):
        out = evolve_excitation_blocks(spec, psi0, t, cutoff)
        assert np.max(np.abs(out.amps - evolve(h, psi0, t).amps)) < 1e-12
        assert np.all(out.amps[unoccupied] == 0.0)


def test_engine_zero_state_returns_zeros():
    spec = table_spec(3)
    layout = SpaceLayout((12,) + (2,) * 3)
    out = evolve_excitation_blocks(spec, StateVector(layout, np.zeros(layout.dim)), 50e-9, 12)
    assert np.array_equal(out.amps, np.zeros(layout.dim))


def test_engine_kept_operator_follows_spec_and_levels():
    # the engine keeps the operator of its last (spec, cutoff); consecutive
    # calls here differ in one detuning only, or in the state's levels only,
    # and one repeats, and each must match dense evolution
    lams = table_spec(3).couplings
    spec_a = ReservoirSpec(lams, (1.5 * MHZ, -0.7 * MHZ, 3.1 * MHZ), N_MEAN)
    spec_b = ReservoirSpec(lams, (1.5 * MHZ, -0.7 * MHZ, -2.4 * MHZ), N_MEAN)
    cutoff = 10
    layout = SpaceLayout((cutoff,) + (2,) * 3)
    psi = _random_state(layout, 5)
    excitation = _excitation(layout)
    low = StateVector(layout, np.where(excitation == 2, psi.amps, 0.0))
    high = StateVector(layout, np.where((excitation == 5) | (excitation == 9), psi.amps, 0.0))
    dense = {spec: reservoir_hamiltonian(spec, cutoff) for spec in (spec_a, spec_b)}
    t = 61e-9
    for spec, state in [
        (spec_a, low), (spec_a, low), (spec_b, low), (spec_b, high), (spec_a, high),
        (spec_a, low),
    ]:
        out = evolve_excitation_blocks(spec, state, t, cutoff)
        assert np.max(np.abs(out.amps - evolve(dense[spec], state, t).amps)) < 1e-12


@pytest.mark.parametrize("arg", ["diag", "amp"])
def test_chebyshev_rejects_complex_hamiltonian(arg):
    args = {"diag": np.zeros((2, 1)), "amp": np.full((2, 1, 1, 3), 0.5)}
    args[arg] = args[arg].astype(complex)
    with pytest.raises(ValueError, match="real symmetric"):
        _chebyshev_operator(args["diag"], np.ones((2, 1, 1), dtype=int), args["amp"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.3, -math.inf)])
def test_engine_rejects_non_finite_state(bad):
    # a pad or a missing partner is read at weight 0, so one inf would
    # spread NaN through 0 * inf: the state is refused before any build
    spec = table_spec(2)
    cutoff = 12
    layout = SpaceLayout((cutoff, 2, 2))
    amps = _random_state(layout, 2).amps.copy()
    amps[[17, 30]] = bad
    kept = _reservoir_operator.cache_info()
    with pytest.raises(ValueError, match="psi must be finite: amplitude 17 is "):
        evolve_excitation_blocks(spec, StateVector(layout, amps), 50 * NS, cutoff)
    assert _reservoir_operator.cache_info() == kept


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_semiclassical_model_rejects_non_finite_time(t):
    spec = table_spec(2)
    with pytest.raises(ValueError, match="t must be finite"):
        coherence_factor(t, spec)
    with pytest.raises(ValueError, match="t must be finite"):
        coherence_factor(np.array([0.0, t, 5e-9]), spec)
    with pytest.raises(ValueError, match="t must be finite"):
        branch_states(t, spec)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_analytic_joint_state_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="t must be finite"):
        analytic_joint_state(t, ALPHA, table_spec(2), 14)


def _strained_messages(caught) -> list[str]:
    return [str(w.message) for w in caught if "branch model is strained" in str(w.message)]


SUMMARY = re.compile(
    r"qubit excitation exceeds 10% of <n>=(\S+) at (\d+) of (\d+) times "
    r"\(first (\S+), last (\S+), largest (\S+)\); the branch model is strained"
)


def _assert_summary_of(fast, slow, n_times):
    """fast is one warning summing up the per-time warnings slow, or none if slow is."""
    if not slow:
        assert fast == []
        return
    leaks = [msg.split()[2] for msg in slow]  # "qubit excitation 1.140 exceeds ..."
    n_mean = slow[0].split("<n>=")[1].split(";")[0]
    expected = (n_mean, str(len(slow)), str(n_times), leaks[0], leaks[-1], max(leaks, key=float))
    assert len(fast) == 1
    assert SUMMARY.fullmatch(fast[0]).groups() == expected


def _qubit_states_against_joint(dt, n_times, alpha, spec, cutoff):
    """Largest deviation from the per-time contraction at t_j = j dt, and its warnings.

    Also checks that the kernel's one "strained" warning sums up the
    per-time warnings of analytic_joint_state on the same grid.
    """
    with warnings.catch_warnings(record=True) as fast:
        warnings.simplefilter("always")
        got, _ = analytic_qubit_states(dt, n_times, alpha, spec, cutoff)
    with warnings.catch_warnings(record=True) as slow:
        warnings.simplefilter("always")
        ref = [reduced_qubit_state(analytic_joint_state(j * dt, alpha, spec, cutoff), 0).mat
               for j in range(n_times)]
    assert got.shape == (n_times, 2, 2)
    slow = _strained_messages(slow)
    _assert_summary_of(_strained_messages(fast), slow, n_times)
    return np.max(np.abs(got - np.array(ref))), slow


def test_analytic_qubit_states_match_joint_state_random():
    rng = np.random.default_rng(20261018)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        cutoff = int(rng.integers(1, 14))  # cutoff < N included
        lams = tuple(rng.uniform(1.0, 10.0, n) * MHZ)
        detuned = rng.random() < 0.5
        deltas = tuple(rng.uniform(-3.0, 3.0, n) * MHZ * detuned)
        alpha = complex(rng.normal(0.0, 1.5), rng.normal(0.0, 1.5))
        spec = ReservoirSpec(lams, deltas, abs(alpha) ** 2)
        # a grid within 200 ns, of one chunk or a few times more
        n_times = int(rng.integers(1, _TIME_CHUNK + 8))
        dt = rng.uniform(0.0, 200.0 / n_times) * NS
        err, _ = _qubit_states_against_joint(dt, n_times, alpha, spec, cutoff)
        assert err < 1e-12, (n, cutoff, alpha, detuned, n_times)


def test_analytic_qubit_states_match_joint_state_n8():
    # two full chunks and a partial one over 200 ns, whatever the chunk
    # size, and most of the times strain the model
    n_times = 2 * _TIME_CHUNK + 3
    dt = 200.0 / (n_times - 1) * NS
    err, slow = _qubit_states_against_joint(dt, n_times, ALPHA, table_spec(8), 40)
    assert err < 1e-12
    assert len(slow) > 10


@pytest.mark.parametrize(
    "n_times", [1, _TIME_CHUNK - 1, _TIME_CHUNK, _TIME_CHUNK + 1, 2 * _TIME_CHUNK + 3]
)
def test_analytic_qubit_states_on_grids_about_the_chunk(n_times):
    # one time; a chunk short of full; exactly one chunk; a second chunk
    # of one time, which is its anchor; two chunks and a partial one
    lams = tuple(2.0 * lh * MHZ for lh in LAMBDA_HALF_TABLE[:4])
    alpha = 2.4 - 1.1j
    spec = ReservoirSpec(lams, tuple(np.array([-2.5, 0.7, 0.0, 3.0]) * MHZ), abs(alpha) ** 2)
    err, _ = _qubit_states_against_joint(3.1 * NS, n_times, alpha, spec, 20)
    assert err < 1e-12


def test_analytic_qubit_states_do_not_drift_along_a_long_grid():
    # 4 us in steps of 0.5 ns, 251 chunks: each chunk's first time is
    # evaluated directly, so the angle additions leave no error that
    # grows along the grid
    dt, n_times = 0.5 * NS, 8001
    spec = ReservoirSpec((8.1 * MHZ, 6.6 * MHZ), (0.0, 1.3 * MHZ), N_MEAN)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, _ = analytic_qubit_states(dt, n_times, ALPHA, spec, 40)
        # every 23rd time, which meets every offset within a chunk, and the last chunk
        checked = sorted(set(range(0, n_times, 23)) | set(range(n_times - _TIME_CHUNK, n_times)))
        ref = [reduced_qubit_state(analytic_joint_state(j * dt, ALPHA, spec, 40), 0).mat
               for j in checked]
    assert np.max(np.abs(got[checked] - np.array(ref))) < 1e-12


def test_unstrained_grid_gives_no_warning():
    # one qubit over the first ns takes far less than 10% of <n>
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states, _ = analytic_qubit_states(0.1 * NS, 11, ALPHA, r1_spec(), 40)
        analytic_qubit_states(0.1 * NS, 0, ALPHA, r1_spec(), 40)
    assert states.shape == (11, 2, 2)
    assert caught == []


@pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
@pytest.mark.parametrize("n", [7, 8])
def test_analytic_qubit_states_at_truncation_boundary(n, offset, detuned):
    # E_n is a truncated sum below n = N - 1 and a plain product above it;
    # cutoffs N - 1 .. N + 2 put the switch at, just inside and past the edge
    cutoff = n + offset
    alpha = 2.1 + 0.9j
    lams = tuple(2.0 * lh * MHZ for lh in LAMBDA_HALF_TABLE[:n])
    deltas = tuple(np.linspace(-2.5, 3.0, n) * MHZ * detuned)
    spec = ReservoirSpec(lams, deltas, abs(alpha) ** 2)
    # a count that is not a multiple of the chunk, then a grid whose last
    # chunk holds a single time; both end at 120 ns
    for n_times in (_TIME_CHUNK + 5, _TIME_CHUNK + 1):
        err, slow = _qubit_states_against_joint(120.0 / (n_times - 1) * NS, n_times, alpha,
                                                spec, cutoff)
        assert err < 1e-12
        assert len(slow) > 0
    # an empty grid: no state and no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        empty, _ = analytic_qubit_states(0.5 * NS, 0, ALPHA, spec, 40)
    assert empty.shape == (0, 2, 2)
    assert caught == []


@pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
def test_kernel_coherence_is_exact_at_n1(detuned):
    # one qubit: the kernel's |coh| is the norm of the |G> column of the
    # exactly evolved |alpha> (x) |g>, over three chunks of 0.5 ns steps
    spec = ReservoirSpec((8.1 * MHZ,), (1.7 * MHZ * detuned,), N_MEAN)
    dt, n_times = 0.5 * NS, 2 * _TIME_CHUNK + 3
    _, coh = analytic_qubit_states(dt, n_times, ALPHA, spec, 40)
    amps = np.zeros(80, dtype=complex)
    amps[::2] = coherent_state(ALPHA, 40).amps
    psi = StateVector(SpaceLayout((40, 2)), amps)
    exact = [np.linalg.norm(evolve_excitation_blocks(spec, psi, j * dt, 40).amps[::2])
             for j in range(n_times)]
    assert coh.shape == (n_times,) and coh[0] == 1.0
    assert np.max(np.abs(coh - exact)) < 1e-12


def test_kernel_coherence_is_exactly_1_at_t0():
    # numpy sums a column of levels pairwise or in sequence depending on
    # the chunk's width, so sum |c_n|^2 prod_k |c_g,k|^2 / sum |c_n|^2 is
    # 1 - 1e-16 at t = 0 for many alpha, and D would read 1.5e-8
    spec = table_spec(2)
    for alpha in np.arange(1, 50) / 10:
        for n_times in (1, 3):
            _, coh = analytic_qubit_states(0.5 * NS, n_times, alpha, spec, 40)
            assert coh[0] == 1.0, (alpha, n_times)


def test_kernel_coherence_matches_the_per_level_sum_n8():
    # eight detuned qubits over more than two chunks: the angle additions
    # and the chunking against the per-level sum taken directly
    lams = tuple(2.0 * lh * MHZ for lh in LAMBDA_HALF_TABLE)
    deltas = tuple(np.array([-2.2, 1.4, 3.1, -0.7, 0.9, -1.6, 2.5, 0.3]) * MHZ)
    alpha = 2.8 - 1.3j
    spec = ReservoirSpec(lams, deltas, abs(alpha) ** 2)
    dt, n_times = 1.9 * NS, 2 * _TIME_CHUNK + 5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the model is strained at most times
        _, coh = analytic_qubit_states(dt, n_times, alpha, spec, 40)
    assert coh[0] == 1.0
    expected = photon_resolved_coh(np.arange(n_times) * dt, alpha, spec, 40)
    assert np.max(np.abs(coh - expected)) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9])
def test_analytic_qubit_states_reject_bad_time(bad):
    match = "nonnegative" if bad == -1e-9 else "t must be finite"
    with pytest.raises(ValueError, match=match):
        analytic_qubit_states(bad, 4, ALPHA, table_spec(2), 14)


def test_analytic_qubit_states_reject_bad_count():
    with pytest.raises(ValueError, match="n_times must be nonnegative"):
        analytic_qubit_states(0.5 * NS, -1, ALPHA, table_spec(2), 14)
    with pytest.raises(TypeError):
        analytic_qubit_states(0.5 * NS, 2.5, ALPHA, table_spec(2), 14)


def test_vacuum_is_level_0_of_the_photon_resolved_map():
    # alpha = 0 leaves only |0, G>, and the map at n = 0 keeps it fixed:
    # c_g,k(0) exp(-i delta_k t/2) = 1 for each qubit, so the phase must
    # carry every qubit's detuning for the amplitude to be 1, not a phase
    lams = tuple(2.0 * lh * MHZ for lh in LAMBDA_HALF_TABLE[:3])
    spec = ReservoirSpec(lams, tuple(np.array([-2.5, 0.7, 3.0]) * MHZ), 0.0)
    times = np.array([0.0, 7.3, 41.0, 200.0]) * NS
    for t in times:
        amps = analytic_joint_state(t, 0.0, spec, 8).amps
        assert abs(amps[0] - 1.0) < 1e-15
        assert np.all(amps[1:] == 0.0)
    # 0 to 200.75 ns, across three chunks
    states, _ = analytic_qubit_states(7.3 * NS, 2 * _TIME_CHUNK + 3, 0.0, spec, 8)
    assert np.max(np.abs(states - np.diag([1.0, 0.0]))) < 1e-15


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_engine_rejects_non_finite_time(t):
    spec = table_spec(2)
    psi0 = cat_with_ground_qubits(ALPHA, spec, 14)
    with pytest.raises(ValueError, match="t must be finite"):
        evolve_excitation_blocks(spec, psi0, t, 14)


def test_reduced_states_match_partial_trace():
    from catbath.hilbert import density_from_state, partial_trace

    # every factor of an N = 3 state: the field (factor 0) and qubits 0, 1, 2
    spec = table_spec(3)
    psi = analytic_joint_state(5e-9, ALPHA, spec, 14)
    rho = density_from_state(psi)
    reduced = [reduced_field_state(psi)] + [reduced_qubit_state(psi, k) for k in range(3)]
    for factor, got in enumerate(reduced):
        ref = partial_trace(rho, [factor])
        assert got.layout == ref.layout
        assert np.allclose(got.mat, ref.mat, rtol=0, atol=1e-12), factor


def _jc_closed_form(t, alpha, lam, delta, cutoff):
    """Exact N = 1 state N+(|0> + |alpha>)|g> at time t, in mpmath.

    |0,g> is stationary; each |n,g>, n >= 1, rotates in the two-level
    block {|n,g>, |n-1,e>} of H = [[0, g_n], [g_n, delta]], g_n =
    lam sqrt(n)/2, whose propagator is exp(-i delta t/2) [cos(W t/2) -
    i sin(W t/2) (H - delta/2)/(W/2)] with W = sqrt(n lam^2 + delta^2).
    Returns amplitudes on the (cutoff, 2) layout, truncating |alpha> at
    the cutoff and renormalizing it the way coherent_state does.
    """
    with mpmath.workdps(30):
        lam, delta, t = mpmath.mpf(lam), mpmath.mpf(delta), mpmath.mpf(t)
        coh = [mpmath.power(alpha, n) / mpmath.sqrt(mpmath.factorial(n)) for n in range(cutoff)]
        coh_norm = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in coh))
        cat = [c / coh_norm for c in coh]
        cat[0] += 1
        cat_norm = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in cat))
        amps = [mpmath.mpc(0)] * (2 * cutoff)
        amps[0] = cat[0] / cat_norm
        phase = mpmath.expj(-delta * t / 2)
        for n in range(1, cutoff):
            w = mpmath.sqrt(n * lam**2 + delta**2)
            c, s = mpmath.cos(w * t / 2), mpmath.sin(w * t / 2)
            a = phase * cat[n] / cat_norm
            amps[2 * n] = a * (c + 1j * delta / w * s)
            amps[2 * (n - 1) + 1] = a * (-1j * lam * mpmath.sqrt(n) / w * s)
        return amps


def _closed_form_entropy(amps):
    """Entropy in bits of the qubit of a closed-form (cutoff, 2) state."""
    with mpmath.workdps(30):
        g, e = amps[0::2], amps[1::2]
        pg = mpmath.fsum(abs(x) ** 2 for x in g)
        pe = mpmath.fsum(abs(x) ** 2 for x in e)
        ge = mpmath.fsum(x * mpmath.conj(y) for x, y in zip(g, e))
        root = mpmath.sqrt((pg - pe) ** 2 / 4 + abs(ge) ** 2)
        lams = [(pg + pe) / 2 + root, (pg + pe) / 2 - root]
        return float(-mpmath.fsum(x * mpmath.log(x, 2) for x in lams if x > 0))


@pytest.mark.parametrize("delta_mhz", [0.0, 1.5, -4.0])
def test_single_qubit_matches_closed_form(delta_mhz):
    spec = ReservoirSpec((8.1 * MHZ,), (delta_mhz * MHZ,), N_MEAN)
    cutoff = 30
    h = reservoir_hamiltonian(spec, cutoff)
    psi0 = cat_with_ground_qubits(ALPHA, spec, cutoff)
    for t in (0.0, 7e-9, 19e-9, 37.3e-9, 61e-9):
        ref = np.array(
            _jc_closed_form(t, ALPHA, 8.1 * MHZ, delta_mhz * MHZ, cutoff), dtype=complex
        )
        assert np.max(np.abs(evolve(h, psi0, t).amps - ref)) < 1e-10
        model = analytic_joint_state(t, ALPHA, spec, cutoff)
        assert np.max(np.abs(model.amps - ref)) < 1e-10


def test_revival_entropy_floor_closed_form():
    # criterion 4's revival window: the exact engine meets the closed form,
    # and the closed form stays far above the 0.15-bit revival target
    spec = r1_spec()
    cutoff = 30
    h = reservoir_hamiltonian(spec, cutoff)
    psi0 = cat_with_ground_qubits(ALPHA, spec, cutoff)
    window = np.linspace(37.0, 39.0, 21) * NS
    engine = min(
        von_neumann_entropy(reduced_qubit_state(evolve(h, psi0, t), 0)) for t in window
    )

    def closed(t):
        return _closed_form_entropy(_jc_closed_form(t, ALPHA, 8.1 * MHZ, 0.0, cutoff))

    closed_min = min(closed(t) for t in window)
    assert engine == pytest.approx(closed_min, abs=1e-9)
    wide = min(closed(t) for t in np.arange(30.0, 50.0 + 0.05, 0.1) * NS)
    assert wide == pytest.approx(closed_min, abs=1e-3)
    assert wide > 0.15
