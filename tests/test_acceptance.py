"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (uncaptured) and then asserts, so
`pytest -v tests/test_acceptance.py` doubles as a scorecard.

Criterion 4 encodes a target that the stated model does not meet and
is left failing on purpose rather than loosened.  For one qubit with
lambda = 8.1 MHz and alpha = 3.3, the closed-form photon-number sum
puts the lowest revival entropy at 0.4413 bit (37.3 ns), also the
minimum over 30-50 ns: the photon-number spread of the cat keeps the
qubit partially entangled, though the semiclassical coherence factor
returns to 1.  test_dynamics.test_revival_entropy_floor_closed_form
pins that value.  Whether the 0.15 target was meant for the
semiclassical model or for other parameters is open until the paper's
text is at hand.

Criterion 8 passes: the branch model resolved by photon number keeps
a minimum fidelity of 0.9924 against exact evolution over 0-40 ns at
N = 2 (it is exact at N = 1).
"""

import math
import time
import warnings

import numpy as np
import pytest

from catbath import analysis, calib, catprep, dynamics, floquet, tomography
from catbath.hilbert import (
    DensityMatrix,
    SpaceLayout,
    StateVector,
    TruncationWarning,
    coherent_state,
    density_from_state,
    evolve,
    fidelity,
)

from conftest import DRIVE_TABLE, LAMBDA_HALF_TABLE, MHZ, NS, drive_params

ALPHA = 3.3


def _report(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        warnings.simplefilter("ignore", UserWarning)
        yield


def test_criterion_1_truncation_fidelity(capsys):
    t0 = time.monotonic()
    f = catprep.truncation_fidelity(catprep.CatSpec(alpha=ALPHA))
    elapsed = time.monotonic() - t0
    ok = abs(f - 0.989) <= 0.001 and elapsed < 1.0
    _report(capsys, 1, ok, f"F={f:.4f}, {elapsed:.2f}s")


def test_criterion_2_protocol_angles(capsys):
    t0 = time.monotonic()
    spec = catprep.CatSpec(alpha=ALPHA)
    xi = 19.8 * MHZ
    steps = catprep.backward_angles(spec, xi)
    thetas = [s.theta for s in steps]
    angles_ok = np.allclose(thetas, [1.57, 2.09, 2.48, 2.35, 2.03, 2.20], atol=0.01)
    layout = SpaceLayout((2, 7))
    vac = np.zeros(14, dtype=complex)
    vac[0] = 1.0
    fwd = catprep.apply_sequence(steps, StateVector(layout, vac), "forward", xi=xi)
    fid = fidelity(fwd, catprep.target_state(spec))
    # backward-sweep intermediate after emptying n=6,5 (the psi_4 row)
    psi = catprep.apply_sequence(steps[:2], catprep.target_state(spec), "backward", xi=xi)
    inter_ok = (
        abs(abs(psi.amps[layout.index((0, 0))]) - 0.23) < 0.01
        and abs(abs(psi.amps[layout.index((0, 2))]) - 0.54) < 0.011
        and abs(abs(psi.amps[layout.index((1, 1))]) - 0.62) < 0.01
    )
    elapsed = time.monotonic() - t0
    ok = angles_ok and inter_ok and fid > 1 - 1e-6 and elapsed < 1.0
    _report(capsys, 2, ok, f"fid={fid:.8f}, angles within 0.01, {elapsed:.2f}s")


def test_criterion_3_sideband_calibration(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for row, lam_half in zip(DRIVE_TABLE, LAMBDA_HALF_TABLE):
        p = drive_params(row)
        worst = max(worst, abs(floquet.effective_coupling(p) - lam_half * MHZ) / MHZ)
    p1 = drive_params(DRIVE_TABLE[0])
    delta_c = floquet.stark_compensating_detuning(p1)
    pc = floquet.FloquetParams(
        xi=p1.xi, eps=p1.eps, nu=p1.nu, delta=delta_c, K=p1.K
    )
    f_swap = floquet.swap_frequency(pc)
    elapsed = time.monotonic() - t0
    ok = worst < 0.15 and abs(f_swap - 8.1e6) / 8.1e6 < 0.05 and elapsed < 30.0
    _report(
        capsys, 3, ok,
        f"max coupling error {worst:.3f} MHz, f_swap={f_swap / 1e6:.2f} MHz, {elapsed:.1f}s",
    )


def test_criterion_4_single_qubit_collapse_revival(capsys):
    t0 = time.monotonic()
    spec = dynamics.ReservoirSpec((8.1 * MHZ,), (0.0,), ALPHA**2)
    cutoff = 30
    h = dynamics.reservoir_hamiltonian(spec, cutoff)
    psi0 = dynamics.cat_with_ground_qubits(ALPHA, spec, cutoff)

    def entropy_at(t):
        psi = evolve(h, psi0, t)
        return analysis.von_neumann_entropy(dynamics.reduced_qubit_state(psi, 0))

    s_collapse = entropy_at(19e-9)
    omega = dynamics.branch_amplitudes(0, 0.0, spec).omega_k
    period = 2 * math.pi / omega
    period_ok = abs(period / NS - 38.0) <= 1.0
    # revival: best (lowest) entropy in the 38 +- 1 ns window
    s_revival = min(entropy_at(t * NS) for t in np.linspace(37.0, 39.0, 21))
    coh_revival = abs(dynamics.coherence_factor(period, spec))
    elapsed = time.monotonic() - t0
    ok = (
        s_collapse >= 0.95
        and s_revival <= 0.15
        and coh_revival >= 0.95
        and period_ok
        and elapsed < 120.0
    )
    _report(
        capsys, 4, ok,
        f"S(19ns)={s_collapse:.3f}, min S(revival)={s_revival:.3f} [target <=0.15], "
        f"|coh|(T)={coh_revival:.3f}, T={period / NS:.2f} ns, {elapsed:.1f}s",
    )


def _disting_trace(n: int, times):
    lams = tuple(2.0 * lh * MHZ for lh in LAMBDA_HALF_TABLE[:n])
    spec = dynamics.ReservoirSpec(lams, (0.0,) * n, ALPHA**2)
    out = []
    for t in times:
        out.append(analysis.reservoir_distinguishability(dynamics.branch_states(t, spec)))
    return np.array(out)


def test_criterion_5_irreversibility_transition(capsys):
    t0 = time.monotonic()
    t1 = np.arange(0.0, 80.0 + 0.25, 0.25) * NS
    d1 = _disting_trace(1, t1)
    osc = d1.max() - d1.min()
    t8 = np.arange(0.0, 200.0 + 0.5, 0.5) * NS
    d8 = _disting_trace(8, t8)
    reached = d8[t8 >= 20 * NS].min() if np.any(t8 >= 20 * NS) else 0.0
    by20 = d8[np.searchsorted(t8, 20 * NS)] > 0.9
    floor = d8[t8 >= 20 * NS].min()
    elapsed = time.monotonic() - t0
    ok = osc > 0.8 and by20 and floor > 0.85 and elapsed < 300.0
    _report(
        capsys, 5, ok,
        f"N=1 swing {osc:.3f}, N=8 D(20ns)={d8[np.searchsorted(t8, 20 * NS)]:.3f}, "
        f"min after 20ns {floor:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_tomography_round_trip(capsys):
    t0 = time.monotonic()
    xi = 19.8 * MHZ
    taus = np.linspace(0, 300, 400) * NS
    rng = np.random.default_rng(0)
    pn = rng.random(9)
    pn /= pn.sum()
    clean = tomography.synthesize_rabi(pn, xi, taus)
    l1_clean = np.abs(tomography.fit_photon_numbers(clean, 8) - pn).sum()
    noisy = tomography.RabiTrace(
        taus, clean.pe + rng.normal(0, 0.01, clean.pe.shape), xi
    )
    l1_noisy = np.abs(tomography.fit_photon_numbers(noisy, 8) - pn).sum()
    vac = np.zeros(20, dtype=complex)
    vac[0] = 1.0
    w0 = tomography.wigner_point(
        density_from_state(StateVector(SpaceLayout((20,)), vac)), 0.0
    )
    cat = catprep.make_amplitude_cat(catprep.CatSpec(alpha=ALPHA), 40, xi)
    wmap = tomography.wigner_map(
        density_from_state(cat), np.linspace(-1.5, 4.5, 121), np.linspace(-2.5, 2.5, 101)
    )
    wmax = float(np.max(np.abs(wmap.values)))
    elapsed = time.monotonic() - t0
    ok = (
        l1_clean < 1e-3
        and l1_noisy < 0.05
        and abs(w0 - 2 / math.pi) < 1e-6
        and wmax <= 2 / math.pi + 1e-9
        and elapsed < 120.0
    )
    _report(
        capsys, 6, ok,
        f"L1 clean {l1_clean:.2e}, noisy {l1_noisy:.3f}, W(0)={w0:.6f}, "
        f"max|W|={wmax:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_analysis_axioms(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    q = SpaceLayout((2,))

    def rand_state():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m @ m.conj().T
        return DensityMatrix(q, m / np.trace(m).real)

    metric_ok = True
    for _ in range(50):
        a, b, c = rand_state(), rand_state(), rand_state()
        dab = analysis.trace_distance(a, b)
        metric_ok &= abs(dab - analysis.trace_distance(b, a)) < 1e-9
        metric_ok &= analysis.trace_distance(a, a) < 1e-9
        metric_ok &= dab <= analysis.trace_distance(a, c) + analysis.trace_distance(c, b) + 1e-9
    psd_ok = True
    for _ in range(100):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = (m + m.conj().T) / 2 + np.eye(2)
        out = analysis.psd_project(DensityMatrix(q, m))
        again = analysis.psd_project(out)
        psd_ok &= np.linalg.eigvalsh(out.mat).min() > -1e-12
        psd_ok &= abs(np.trace(out.mat).real - 1.0) < 1e-12
        psd_ok &= np.max(np.abs(again.mat - out.mat)) < 1e-12
    ent_ok = True
    for _ in range(20):
        rho = rand_state()
        hm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hm = hm + hm.conj().T
        w, v = np.linalg.eigh(hm)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        rot = DensityMatrix(q, u @ rho.mat @ u.conj().T)
        ent_ok &= (
            abs(analysis.von_neumann_entropy(rot) - analysis.von_neumann_entropy(rho))
            < 1e-10
        )
    elapsed = time.monotonic() - t0
    ok = bool(metric_ok and psd_ok and ent_ok) and elapsed < 10.0
    _report(
        capsys, 7, ok,
        f"metric {metric_ok}, psd {psd_ok}, entropy {ent_ok}, {elapsed:.1f}s",
    )


def test_criterion_8_oracle_equivalence(capsys):
    t0 = time.monotonic()
    cutoff = 30
    min_fid = 1.0
    cons_ok = True
    for n in (1, 2):
        lams = tuple(2.0 * lh * MHZ for lh in LAMBDA_HALF_TABLE[:n])
        spec = dynamics.ReservoirSpec(lams, (0.0,) * n, ALPHA**2)
        h = dynamics.reservoir_hamiltonian(spec, cutoff)
        psi0 = dynamics.cat_with_ground_qubits(ALPHA, spec, cutoff)
        layout = h.layout
        nvals = np.array(
            [lv[0] + sum(lv[1:]) for lv in np.ndindex(*layout.dims)], dtype=float
        )
        n0 = float(nvals @ np.abs(psi0.amps) ** 2)
        for t_ns in np.arange(0.0, 40.0 + 1.0, 2.0):
            exact = evolve(h, psi0, t_ns * NS)
            model = dynamics.analytic_joint_state(t_ns * NS, ALPHA, spec, cutoff)
            min_fid = min(min_fid, fidelity(model, exact))
            cons_ok &= abs(nvals @ np.abs(exact.amps) ** 2 - n0) < 1e-8
    elapsed = time.monotonic() - t0
    ok = min_fid >= 0.98 and cons_ok and elapsed < 120.0
    _report(
        capsys, 8, ok,
        f"min fidelity {min_fid:.4f} [target >=0.98], excitation conserved {cons_ok}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_crosstalk(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    resid_ok = True
    for n in range(2, 11):
        c = rng.normal(scale=0.04, size=(n, n))
        np.fill_diagonal(c, 0.0)
        m = calib.assemble_mcor(c)
        z_eff = rng.normal(size=n)
        z_cmd = calib.commanded_amplitudes(m, z_eff)
        resid_ok &= np.linalg.norm(m @ z_cmd - z_eff) < 1e-12
    c2 = np.zeros((2, 2))
    c2[1, 0] = 0.05
    z = calib.commanded_amplitudes(calib.assemble_mcor(c2), np.array([1.0, 0.0]))
    example_ok = np.allclose(z, [1.0, 0.05], atol=1e-15)
    elapsed = time.monotonic() - t0
    ok = bool(resid_ok and example_ok) and elapsed < 10.0
    _report(capsys, 9, ok, f"residuals ok {resid_ok}, worked example {example_ok}, {elapsed:.1f}s")
