"""Benchmark workloads: seeded inputs, timed operations, output checks.

Every workload reads configs/device.yaml.  A workload is a list of
operations; an operation is one CLI call or one checked library call.
Inputs are written to files before the timed region, so the program
only ever sees files, and all checks run after it.  Checks use physics
invariants and independent closed forms rather than golden outputs, so
a valid change of model (for example exact reservoir dynamics in
`decohere`) still passes.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import os
from typing import Callable

import numpy as np
import yaml
from scipy import special

from catbath import catprep, cli, dynamics, floquet, hilbert
from catbath.config import MHZ, NS, DeviceConfig

# "full" is the benchmark; "tiny" is the self-test's quick version.
SIZES = {
    "full": {
        "n_qubits": 8,
        "t_max_ns": 200.0,
        "dt_ns": 0.5,
        "grid_points": None,
        "swap_qubits": 8,
        "block_points": 2,
    },
    "tiny": {
        "n_qubits": 2,
        "t_max_ns": 4.0,
        "dt_ns": 0.5,
        "grid_points": (25, 21),
        "swap_qubits": 1,
        "block_points": 1,
    },
}

TOL = 1e-9
WIGNER_SAMPLES = 16
RABI_N_MAX = 20
RABI_NOISE = 0.005


@dataclasses.dataclass
class Context:
    root: str
    workdir: str
    seed: int
    size: str
    config: DeviceConfig

    @property
    def config_path(self) -> str:
        return os.path.join(self.root, "configs", "device.yaml")

    @property
    def params(self) -> dict:
        return SIZES[self.size]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([stream, self.seed % 2**64])


@dataclasses.dataclass
class Op:
    """`run` is timed; `check` gets its return value and lists problems."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclasses.dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def cli_op(name: str, argv: list[str], check: Callable[[CliRun], list[str]]) -> Op:
    def run() -> CliRun:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliRun(code, out.getvalue(), err.getvalue())

    def checked(res: CliRun) -> list[str]:
        if res.code != 0:
            return [f"exit code {res.code}: {res.stderr.strip()[-300:]}"]
        return check(res)

    return Op(name, run, checked)


def warning_lines(ctx: Context, values) -> int:
    """Warning lines the CLI wrote: sidecar logs plus stderr."""
    count = sum(
        v.stderr.count("warning:") for v in values if isinstance(v, CliRun)
    )
    for name in os.listdir(ctx.workdir):
        if name.endswith(".warnings.log"):
            with open(ctx.path(name), encoding="utf-8") as fh:
                count += sum(1 for line in fh if line.strip())
    return count


def read_csv(path: str, header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{os.path.basename(path)}: header {rows[:1]}, expected {header}")
    return rows[1:]


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else repr(float(c)) for c in row] for row in rows)


def float_table(path: str, header: list[str]) -> np.ndarray:
    return np.array(read_csv(path, header), dtype=float).reshape(-1, len(header))


def _couplings(cfg: DeviceConfig, n: int) -> np.ndarray:
    """Exchange rates lambda_k = 2 |J1(eps/nu) xi| in rad/s, closed form."""
    q = cfg.qubits[:n]
    return np.array([2.0 * abs(special.jv(1, x.eps_MHz / x.nu_MHz) * x.xi_MHz) * MHZ for x in q])


def _amplitude_cat(alpha: float, cutoff: int) -> np.ndarray:
    """Fock amplitudes of N(|0> + |alpha>), closed form."""
    n = np.arange(cutoff)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    amps = (n == 0) + np.exp(-alpha**2 / 2.0 + n * math.log(alpha) - 0.5 * log_fact)
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------- decohere-n8


def decohere_n8(ctx: Context) -> list[Op]:
    p = ctx.params
    out = ctx.path("decohere.csv")
    t_max, dt = p["t_max_ns"], p["dt_ns"]
    argv = ["decohere", "--config", ctx.config_path, "--n-qubits", str(p["n_qubits"]),
            "--t-max", repr(t_max), "--dt", repr(dt), "--out", out]

    def check(_res: CliRun) -> list[str]:
        data = float_table(out, ["t_ns", "coh_factor_abs", "entropy_bits", "distinguishability"])
        times = np.arange(0.0, t_max + dt / 2.0, dt)
        if data.shape[0] != times.size:
            return [f"{data.shape[0]} rows, expected {times.size}"]
        problems = []
        if not np.all(np.isfinite(data)):
            problems.append("non-finite value")
        if np.max(np.abs(data[:, 0] - times)) > TOL * t_max:
            problems.append("time column does not match the requested grid")
        values = data[:, 1:]
        if values.min() < -TOL or values.max() > 1.0 + TOL:
            problems.append(f"value outside [0, 1]: [{values.min()}, {values.max()}]")
        coh0, s0, d0 = data[0, 1:]
        if abs(coh0 - 1.0) > TOL or abs(s0) > TOL or abs(d0) > TOL:
            problems.append(f"t = 0 row is (coh {coh0}, S {s0}, D {d0}), expected (1, 0, 0)")
        return problems

    return [cli_op("decohere", argv, check)]


# ---------------------------------------------------------------- wigner-cat


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros(x.size)
    w[:-1] += np.diff(x) / 2.0
    w[1:] += np.diff(x) / 2.0
    return w


def wigner_laguerre(rho: np.ndarray, alpha: complex) -> float:
    """W(alpha) of a Fock-basis rho from the closed-form Laguerre terms.

    W = (2/pi) e^{-2|alpha|^2} sum_{m<=n} (-1)^m (2 alpha)^{n-m}
        sqrt(m!/n!) L_m^{(n-m)}(4|alpha|^2) rho_mn  (+ c.c. for m < n).
    """
    x = 4.0 * abs(alpha) ** 2
    total = 0.0
    for m in range(rho.shape[0]):
        total += (-1) ** m * rho[m, m].real * special.eval_genlaguerre(m, 0, x)
        for n in range(m + 1, rho.shape[0]):
            k = n - m
            coef = (
                (-1) ** m * (2.0 * alpha) ** k
                * math.exp(0.5 * (math.lgamma(m + 1.0) - math.lgamma(n + 1.0)))
                * special.eval_genlaguerre(m, k, x)
            )
            total += 2.0 * (rho[m, n] * coef).real
    return 2.0 / math.pi * math.exp(-x / 2.0) * total


def wigner_cat(ctx: Context) -> list[Op]:
    cfg = ctx.config
    config_path = ctx.config_path
    grid = cfg.scenario.wigner_grid
    if ctx.params["grid_points"] is not None:
        with open(config_path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        re_points, im_points = ctx.params["grid_points"]
        raw["scenario"]["wigner_grid"].update(re_points=re_points, im_points=im_points)
        config_path = ctx.path("device.yaml")
        with open(config_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(raw, fh)
        grid = dataclasses.replace(grid, re_points=re_points, im_points=im_points)
    re_grid, im_grid = grid.grids()
    samples = ctx.rng(1).choice(re_grid.size * im_grid.size, WIGNER_SAMPLES, replace=False)
    out = ctx.path("wigner.csv")

    def check(_res: CliRun) -> list[str]:
        data = float_table(out, ["re", "im", "w"])
        if data.shape[0] != re_grid.size * im_grid.size:
            return [f"{data.shape[0]} rows, expected {re_grid.size * im_grid.size}"]
        if not np.all(np.isfinite(data)):
            return ["non-finite value"]
        problems = []
        re_col = np.repeat(re_grid, im_grid.size)
        im_col = np.tile(im_grid, re_grid.size)
        if max(np.max(np.abs(data[:, 0] - re_col)), np.max(np.abs(data[:, 1] - im_col))) > TOL:
            problems.append("grid columns do not match the config grid")
        w = data[:, 2].reshape(re_grid.size, im_grid.size)
        if np.max(np.abs(w)) > 2.0 / math.pi + TOL:
            problems.append(f"|W| = {np.max(np.abs(w))} exceeds 2/pi")
        integral = _trapezoid_weights(re_grid) @ w @ _trapezoid_weights(im_grid)
        if abs(integral - 1.0) > 0.01:
            problems.append(f"integral of W over the grid is {integral}, expected 1")
        spec = catprep.CatSpec(alpha=cfg.scenario.alpha)
        cat = catprep.make_amplitude_cat(spec, cfg.cutoff, cfg.ancilla_xi_MHz * MHZ).amps
        rho = np.outer(cat, cat.conj())
        for idx in samples:
            alpha = complex(re_col[idx], im_col[idx])
            ref = wigner_laguerre(rho, alpha)
            if abs(data[idx, 2] - ref) > 1e-8:
                problems.append(f"W({alpha}) = {data[idx, 2]}, closed form gives {ref}")
        return problems

    return [cli_op("wigner", ["wigner", "--config", config_path, "--out", out], check)]


# ---------------------------------------------------------------- calib-exact


def _swap_op(q) -> Op:
    f_eff = 2.0 * abs(special.jv(1, q.eps_MHz / q.nu_MHz) * q.xi_MHz) * 1e6

    def run() -> float:
        p = q.floquet_params()
        pc = floquet.FloquetParams(
            xi=p.xi, eps=p.eps, nu=p.nu, delta=floquet.stark_compensating_detuning(p),
            K=p.K, name=p.name,
        )
        return floquet.swap_frequency(pc)

    def check(f: float) -> list[str]:
        err = abs(f - f_eff) / f_eff
        if not err <= 1e-3:
            return [f"swap frequency {f} Hz is {err:.2e} from 2|lambda/2|/2pi = {f_eff} Hz"]
        return []

    return Op(f"swap_frequency[{q.name}]", run, check)


def _block_op(ctx: Context, t: float) -> Op:
    cfg = ctx.config
    n, cutoff = ctx.params["n_qubits"], cfg.cutoff
    spec = dynamics.ReservoirSpec(
        tuple(_couplings(cfg, n)), tuple(q.delta_MHz * MHZ for q in cfg.qubits[:n]),
        cfg.scenario.alpha**2,
    )
    psi0 = dynamics.cat_with_ground_qubits(cfg.scenario.alpha, spec, cutoff)

    def run():
        return dynamics.evolve_excitation_blocks(spec, psi0, t, cutoff)

    def check(psi) -> list[str]:
        problems = []
        if not np.all(np.isfinite(psi.amps)):
            return ["non-finite amplitude"]
        if abs(psi.norm - 1.0) > TOL:
            problems.append(f"norm drifted to {psi.norm}")
        dims = psi0.layout.dims
        levels = np.unravel_index(np.arange(psi0.layout.dim), dims)
        excitations = levels[0] + sum(levels[1:])
        before = np.bincount(excitations, np.abs(psi0.amps) ** 2)
        after = np.bincount(excitations, np.abs(psi.amps) ** 2)
        if np.max(np.abs(after - before)) > TOL:
            problems.append(f"excitation populations changed by {np.max(np.abs(after - before))}")
        small = dynamics.ReservoirSpec(spec.couplings[:2], spec.detunings[:2], spec.n_mean)
        psi_small = dynamics.cat_with_ground_qubits(cfg.scenario.alpha, small, cutoff)
        blocks = dynamics.evolve_excitation_blocks(small, psi_small, t, cutoff)
        dense = hilbert.evolve(dynamics.reservoir_hamiltonian(small, cutoff), psi_small, t)
        if np.max(np.abs(blocks.amps - dense.amps)) > 1e-9:
            problems.append("block engine differs from dense evolution at N = 2")
        return problems

    return Op(f"evolve_excitation_blocks[t={t / NS:.3f}ns]", run, check)


def _prep_cat_op(ctx: Context) -> Op:
    cfg = ctx.config
    steps_out, fock_out = ctx.path("steps.csv"), ctx.path("fock.csv")

    def check(_res: CliRun) -> list[str]:
        steps = float_table(steps_out, ["n", "theta_rad", "t_ns"])
        fock = float_table(fock_out, ["fock_n", "re", "im"])
        problems = []
        if steps.shape[0] < 1 or not np.all(np.isfinite(steps)) or steps[:, 2].min() <= 0:
            problems.append("swap sequence is empty, non-finite or has a non-positive duration")
        if fock.shape[0] != cfg.cutoff or np.any(fock[:, 0] != np.arange(cfg.cutoff)):
            return problems + [f"{fock.shape[0]} Fock rows, expected 0..{cfg.cutoff - 1}"]
        amps = fock[:, 1] + 1j * fock[:, 2]
        if abs(np.linalg.norm(amps) - 1.0) > TOL:
            problems.append(f"cat norm is {np.linalg.norm(amps)}")
        fid = abs(np.vdot(_amplitude_cat(cfg.scenario.alpha, cfg.cutoff), amps)) ** 2
        if not fid >= 0.95:
            problems.append(f"fidelity {fid} with N(|0> + |alpha>) is below 0.95")
        return problems

    argv = ["prep-cat", "--config", ctx.config_path, "--steps-out", steps_out, "--fock-out", fock_out]
    return cli_op("prep-cat", argv, check)


def _floquet_calib_op(ctx: Context) -> Op:
    qubits = [ctx.config.qubits[i] for i in ctx.rng(2).permutation(len(ctx.config.qubits))]
    params = ctx.path("drive.csv")
    write_csv(
        params, ["name", "xi_MHz", "eps_MHz", "nu_MHz", "delta_MHz", "K_MHz"],
        [(q.name, q.xi_MHz, q.eps_MHz, q.nu_MHz, q.delta_MHz, q.K_MHz) for q in qubits],
    )
    out = ctx.path("calib.csv")

    def check(_res: CliRun) -> list[str]:
        rows = read_csv(out, ["name", "lambda_half_MHz", "S1_MHz", "S2_MHz"])
        if [r[0] for r in rows] != [q.name for q in qubits]:
            return ["output rows do not follow the input rows"]
        problems = []
        for q, row in zip(qubits, rows):
            lam_half, s1, s2 = (float(x) for x in row[1:])
            ref = special.jv(1, q.eps_MHz / q.nu_MHz) * q.xi_MHz
            if not abs(lam_half - ref) <= TOL * abs(ref) or not math.isfinite(s1 + s2):
                problems.append(f"{q.name}: lambda/2 {lam_half} MHz (closed form {ref}), S {s1}, {s2}")
        return problems

    return cli_op("floquet-calib", ["floquet-calib", "--params", params, "--out", out], check)


def _fit_rabi_op(ctx: Context) -> Op:
    xi_mhz = ctx.config.ancilla_xi_MHz
    truth = np.abs(_amplitude_cat(ctx.config.scenario.alpha, RABI_N_MAX + 1)) ** 2
    taus_ns = np.arange(0.0, 1000.0 + 0.25, 0.5)
    cosines = np.cos(2.0 * xi_mhz * MHZ * np.sqrt(np.arange(truth.size)) * taus_ns[:, None] * NS)
    pe = 0.5 * (1.0 - cosines @ truth) + ctx.rng(3).normal(0.0, RABI_NOISE, taus_ns.size)
    data, out = ctx.path("rabi.csv"), ctx.path("pn.csv")
    write_csv(data, ["tau_ns", "pe"], zip(taus_ns.tolist(), pe.tolist()))

    def check(_res: CliRun) -> list[str]:
        fit = float_table(out, ["n", "p"])
        if fit.shape[0] != truth.size or not np.all(np.isfinite(fit)):
            return [f"{fit.shape[0]} rows or non-finite values, expected {truth.size} rows"]
        p = fit[:, 1]
        if p.min() < 0.0 or abs(p.sum() - 1.0) > TOL:
            return [f"fit is not a distribution: min {p.min()}, sum {p.sum()}"]
        tv = 0.5 * np.abs(p - truth).sum()
        return [f"total variation {tv} from the true distribution"] if tv > 0.05 else []

    argv = ["fit-rabi", "--data", data, "--xi-mhz", repr(xi_mhz), "--n-max", str(RABI_N_MAX), "--out", out]
    return cli_op("fit-rabi", argv, check)


def _disting_op(ctx: Context) -> Op:
    rng = ctx.rng(4)
    n = ctx.params["n_qubits"]
    theta, phi = rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n)
    states = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)
    rows = []
    for k, v in enumerate(states):
        rho = np.outer(v, v.conj()).ravel()
        rows.append([str(k)] + [x for z in rho for x in (z.real, z.imag)])
    branches = ctx.path("branches.csv")
    write_csv(branches, ["qubit", "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"], rows)
    # pure branches: trace distance to |g...g> is sqrt(1 - prod |c_g|^2)
    ref = math.sqrt(1.0 - float(np.prod(np.abs(states[:, 0]) ** 2)))

    def check(res: CliRun) -> list[str]:
        d = float(res.stdout.strip().splitlines()[-1])
        return [] if abs(d - ref) <= TOL else [f"D = {d}, closed form gives {ref}"]

    return cli_op("disting", ["disting", "--branches", branches], check)


def _crosstalk_op(ctx: Context) -> Op:
    rng = ctx.rng(5)
    n = len(ctx.config.qubits)
    names = [q.name for q in ctx.config.qubits]
    alpha = rng.uniform(-0.05, 0.05, (n, n))
    z_eff = rng.uniform(-0.5, 0.5, n)
    coeffs, targets, out = ctx.path("coeffs.csv"), ctx.path("targets.csv"), ctx.path("zcmd.csv")
    write_csv(coeffs, ["i", "j", "alpha"],
              [(names[i], names[j], alpha[i, j]) for i in range(n) for j in range(n) if i != j])
    write_csv(targets, ["i", "z_eff"], zip(names, z_eff.tolist()))
    m = np.eye(n) - alpha * (1 - np.eye(n))

    def check(_res: CliRun) -> list[str]:
        rows = read_csv(out, ["i", "z_cmd"])
        if [r[0] for r in rows] != names:
            return ["output rows do not follow the target rows"]
        z_cmd = np.array([float(r[1]) for r in rows])
        residual = np.linalg.norm(m @ z_cmd - z_eff)
        return [] if residual <= TOL else [f"residual |M z_cmd - z_eff| = {residual}"]

    argv = ["crosstalk-solve", "--coeffs", coeffs, "--targets", targets, "--out", out]
    return cli_op("crosstalk-solve", argv, check)


def calib_exact(ctx: Context) -> list[Op]:
    p = ctx.params
    ops = [_swap_op(q) for q in ctx.config.qubits[: p["swap_qubits"]]]
    times = np.sort(ctx.rng(0).uniform(0.0, p["t_max_ns"], p["block_points"])) * NS
    ops += [_block_op(ctx, float(t)) for t in times]
    ops += [_prep_cat_op(ctx), _floquet_calib_op(ctx), _fit_rabi_op(ctx),
            _disting_op(ctx), _crosstalk_op(ctx)]
    return ops


WORKLOADS = {
    "decohere-n8": decohere_n8,
    "wigner-cat": wigner_cat,
    "calib-exact": calib_exact,
}
