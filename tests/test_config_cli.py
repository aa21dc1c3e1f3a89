import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import catbath
from catbath import analysis, catprep, dynamics
from catbath.cli import (
    _fmt,
    _group_warnings,
    _reservoir_from_config,
    _write_csv,
    _write_wigner,
    main,
)
from catbath.config import (
    MHZ,
    NS,
    ConfigError,
    DeviceConfig,
    QubitConfig,
    ScenarioConfig,
    load_config,
    parse_config,
)
from catbath.hilbert import DensityMatrix, SpaceLayout, TruncationWarning, coherent_state
from catbath.tomography import WignerMap, synthesize_rabi, wigner_map

from conftest import DRIVE_TABLE

DEVICE_YAML = Path(__file__).parent.parent / "configs" / "device.yaml"

CONFIG = {
    "resonator": {"omega_s_MHz": 5796.0, "cutoff": 24},
    "ancilla": {"xi_MHz": 19.8},
    "qubits": [
        {"name": "R1", "xi_MHz": 19.6, "eps_MHz": 81.5, "nu_MHz": 190.0, "K_MHz": 250.0},
        {"name": "R2", "xi_MHz": 19.9, "eps_MHz": 67.3, "nu_MHz": 200.0, "K_MHz": 250.0},
    ],
    "scenario": {
        "alpha": 3.3,
        "n_qubits": 1,
        "t_max_ns": 40.0,
        "dt_ns": 10.0,
        "wigner_grid": {"re_points": 5, "im_points": 3},
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "device.yaml"
    path.write_text(yaml.safe_dump(CONFIG))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_load_config_units(config_path):
    cfg = load_config(config_path)
    assert cfg.cutoff == 24
    p = cfg.qubits[0].floquet_params()
    assert p.xi == pytest.approx(2 * math.pi * 19.6e6)


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda c: c["resonator"].pop("cutoff"), "resonator.cutoff"),
        (lambda c: c["scenario"].update(dt_ns=-1.0), "scenario.dt_ns"),
        (lambda c: c["scenario"].update(n_qubits=9), "scenario.n_qubits"),
        (lambda c: c["qubits"][0].pop("nu_MHz"), "qubits[0].nu_MHz"),
        (lambda c: c["qubits"][0].update(xi_MHz="fast"), "qubits[0].xi_MHz"),
        (lambda c: c.pop("qubits"), "qubits"),
    ],
)
def test_config_validation_names_field(mutate, field):
    import copy

    data = copy.deepcopy(CONFIG)
    mutate(data)
    with pytest.raises(ConfigError, match=field.replace("[", "\\[")):
        parse_config(data)


def test_minimal_config_takes_dataclass_defaults():
    qubit = {"name": "R1", "xi_MHz": 19.6, "eps_MHz": 81.5, "nu_MHz": 190.0}
    cfg = parse_config(
        {"resonator": {"omega_s_MHz": 5796.0, "cutoff": 24}, "qubits": [qubit]}
    )
    assert cfg == DeviceConfig(
        omega_s_MHz=5796.0,
        cutoff=24,
        qubits=(QubitConfig(**qubit),),
        scenario=ScenarioConfig(),
    )


def test_prep_cat_cli(tmp_path, config_path):
    steps = tmp_path / "steps.csv"
    fock = tmp_path / "fock.csv"
    rc = main(
        ["prep-cat", "--config", config_path, "--steps-out", str(steps), "--fock-out", str(fock)]
    )
    assert rc == 0
    rows = read_rows(steps)
    assert [r["n"] for r in rows] == ["6", "5", "4", "3", "2", "1"]
    thetas = [float(r["theta_rad"]) for r in rows]
    assert np.allclose(thetas, [1.57, 2.09, 2.48, 2.35, 2.03, 2.20], atol=0.01)
    amps = read_rows(fock)
    assert len(amps) == 24
    norm = sum(float(r["re"]) ** 2 + float(r["im"]) ** 2 for r in amps)
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_floquet_calib_cli(tmp_path):
    params = tmp_path / "params.csv"
    out = tmp_path / "calib.csv"
    with open(params, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "xi_MHz", "eps_MHz", "nu_MHz", "delta_MHz", "K_MHz"])
        w.writerow(["R1", 19.6, 81.5, 190.0, 0.0, 250.0])
    assert main(["floquet-calib", "--params", str(params), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0]["name"] == "R1"
    assert float(rows[0]["lambda_half_MHz"]) == pytest.approx(4.1, abs=0.15)
    assert float(rows[0]["S1_MHz"]) == pytest.approx(1.886, abs=0.01)


@pytest.mark.parametrize("column,value,message", [
    ("xi_MHz", "1e308", "xi must be finite"),  # overflows in the conversion to rad/s
    ("nu_MHz", "0", "nu must be positive"),
    ("nu_MHz", "125", "resonant denominator"),  # (1 - n) nu + K = 0 at n = 3
])
def test_floquet_calib_rejects_out_of_range_row(tmp_path, capsys, column, value, message):
    header = ["name", "xi_MHz", "eps_MHz", "nu_MHz", "delta_MHz", "K_MHz"]
    row = dict(zip(header, ["R1", "19.6", "81.5", "190.0", "0.0", "250.0"]), **{column: value})
    params = tmp_path / "params.csv"
    params.write_text(",".join(header) + "\n" + ",".join(row[h] for h in header) + "\n")
    out = tmp_path / "calib.csv"
    assert main(["floquet-calib", "--params", str(params), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_decohere_cli_n1_collapse_revival(tmp_path, config_path):
    out = tmp_path / "dec.csv"
    rc = main(
        ["decohere", "--config", config_path, "--n-qubits", "1",
         "--t-max", "80", "--dt", "0.5", "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(out)
    t = np.array([float(r["t_ns"]) for r in rows])
    coh = np.array([float(r["coh_factor_abs"]) for r in rows])
    # minima near 19 ns, maxima near 38 ns
    win_min = coh[(t > 14) & (t < 24)]
    win_max = coh[(t > 33) & (t < 43)]
    assert win_min.min() < 0.05
    assert win_max.max() > 0.95
    mask = (t > 33) & (t < 43)
    assert abs(t[mask][np.argmax(coh[mask])] - 38) < 2


def test_decohere_cli_byte_identical(tmp_path, config_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(
            ["decohere", "--config", config_path, "--t-max", "20", "--dt", "5",
             "--out", str(out)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().decode().splitlines()[0] == (
        "t_ns,coh_factor_abs,entropy_bits,distinguishability"
    )


def test_decohere_cli_detuned_n8_matches_branch_model(tmp_path):
    data = yaml.safe_load(DEVICE_YAML.read_text())
    for q, delta in zip(data["qubits"], (-2.2, 1.4, 3.1, -0.7, 0.9, -1.6, 2.5, 0.3)):
        q["delta_MHz"] = delta
    config_path = tmp_path / "detuned.yaml"
    config_path.write_text(yaml.safe_dump(data))
    out = tmp_path / "dec.csv"
    assert main(
        ["decohere", "--config", str(config_path), "--n-qubits", "8",
         "--t-max", "60", "--dt", "0.5", "--out", str(out)]
    ) == 0
    rows = read_rows(out)
    spec = _reservoir_from_config(load_config(str(config_path)), 8)
    assert any(d != 0.0 for d in spec.detunings)
    for row in rows:
        t = float(row["t_ns"]) * NS
        coh, d = float(row["coh_factor_abs"]), float(row["distinguishability"])
        assert 0.0 <= coh <= 1.0 and 0.0 <= d <= 1.0
        assert coh == pytest.approx(abs(dynamics.coherence_factor(t, spec)), abs=1e-12)
        expected = analysis.reservoir_distinguishability(dynamics.branch_states(t, spec))
        assert d == pytest.approx(expected, abs=1e-12)
    assert len(rows) == 121


def test_wigner_cli(tmp_path, config_path):
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", config_path, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 5 * 3
    assert all(abs(float(r["w"])) <= 2 / math.pi + 1e-6 for r in rows)


def test_fit_rabi_cli(tmp_path):
    pn = np.array([0.2, 0.5, 0.3])
    taus = np.linspace(0, 300, 240)
    trace = synthesize_rabi(pn, 19.8 * MHZ, taus * NS)
    data = tmp_path / "rabi.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau_ns", "pe"])
        for t, p in zip(taus, trace.pe):
            w.writerow([t, p])
    out = tmp_path / "pn.csv"
    rc = main(
        ["fit-rabi", "--data", str(data), "--xi-mhz", "19.8", "--n-max", "4",
         "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(out)
    fitted = np.array([float(r["p"]) for r in rows])
    assert np.abs(fitted[:3] - pn).sum() < 1e-6


def test_disting_cli(tmp_path, capsys):
    path = tmp_path / "branches.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["qubit", "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"])
        w.writerow(["R1", 0.5, 0, 0.5, 0, 0.5, 0, 0.5, 0])  # |+><+|
    assert main(["disting", "--branches", str(path)]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(math.sqrt(1 - 0.5), abs=1e-9)


def test_disting_rejects_unphysical_branch(tmp_path, capsys):
    path = tmp_path / "branches.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["qubit", "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"])
        w.writerow(["R1", 1, 0, 0, 0, 0, 0, 0, 0])
        w.writerow(["R2", 1.1, 0, 0, 0, 0, 0, -0.1, 0])  # eigenvalue -0.1
    assert main(["disting", "--branches", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "qubit 1" in captured.err and "negative eigenvalue" in captured.err


def test_disting_rejects_more_than_20_rows(tmp_path, capsys):
    path = tmp_path / "branches.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["qubit", "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"])
        for k in range(21):
            w.writerow([f"R{k}", 1, 0, 0, 0, 0, 0, 0, 0])
    assert main(["disting", "--branches", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "limit of 20" in captured.err


def test_crosstalk_cli(tmp_path):
    coeffs = tmp_path / "c.csv"
    targets = tmp_path / "t.csv"
    out = tmp_path / "z.csv"
    coeffs.write_text("i,j,alpha\n2,1,0.05\n")
    targets.write_text("i,z_eff\n1,1\n2,0\n")
    rc = main(
        ["crosstalk-solve", "--coeffs", str(coeffs), "--targets", str(targets),
         "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(out)
    assert [r["i"] for r in rows] == ["1", "2"]
    assert float(rows[1]["z_cmd"]) == pytest.approx(0.05)


def test_cli_validation_exit_codes(tmp_path, config_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("resonator: {omega_s_MHz: 5796.0}\n")
    rc = main(
        ["prep-cat", "--config", str(bad), "--steps-out", str(tmp_path / "s.csv"),
         "--fock-out", str(tmp_path / "f.csv")]
    )
    assert rc == 1
    assert "resonator.cutoff" in capsys.readouterr().err
    rc = main(
        ["decohere", "--config", config_path, "--dt", "-1", "--out",
         str(tmp_path / "d.csv")]
    )
    assert rc == 1


def test_decohere_rejects_nonfinite_config(tmp_path, capsys):
    import copy

    for bad in (float("nan"), float("inf")):
        data = copy.deepcopy(CONFIG)
        data["qubits"][0]["nu_MHz"] = bad
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "dec.csv"
        rc = main(["decohere", "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert "qubits[0].nu_MHz" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("section,key", [
    ("qubits", "xi_MHz"),
    ("qubits", "K_MHz"),
    ("resonator", "omega_s_MHz"),
    ("ancilla", "xi_MHz"),
])
def test_config_rejects_mhz_past_the_rad_per_s_range(tmp_path, capsys, section, key):
    # 1e308 MHz is finite, but 2 pi 1e6 x 1e308 rad/s is not
    import copy

    data = copy.deepcopy(CONFIG)
    target = data["qubits"][0] if section == "qubits" else data[section]
    target[key] = 1.0e308
    path = tmp_path / "big.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "dec.csv"
    assert main(["decohere", "--config", str(path), "--out", str(out)]) == 1
    field = f"qubits[0].{key}" if section == "qubits" else f"{section}.{key}"
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


def _unordered_grid(axis: str, lo: float, hi: float) -> dict:
    import copy

    data = copy.deepcopy(CONFIG)
    data["scenario"]["wigner_grid"].update({f"{axis}_min": lo, f"{axis}_max": hi})
    return data


@pytest.mark.parametrize("axis", ["re", "im"])
@pytest.mark.parametrize("lo,hi", [(4.5, -1.5), (1.0, 1.0)])
def test_config_rejects_unordered_wigner_grid(tmp_path, capsys, axis, lo, hi):
    data = _unordered_grid(axis, lo, hi)
    with pytest.raises(ConfigError, match="scenario.wigner_grid"):
        parse_config(data)
    # one point needs no order
    data["scenario"]["wigner_grid"][f"{axis}_points"] = 1
    parse_config(data)
    path = tmp_path / "grid.yaml"
    path.write_text(yaml.safe_dump(_unordered_grid(axis, lo, hi)))
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", str(path), "--time", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: scenario.wigner_grid: ")
    assert not out.exists()
    out = tmp_path / "d.csv"
    rc = main(["decohere", "--config", str(path), "--wigner-times", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: scenario.wigner_grid: ")
    assert not out.exists()


def test_cat_synthesis_rejects_cutoff_below_its_levels(tmp_path, capsys):
    data = dict(CONFIG, resonator={"omega_s_MHz": 5796.0, "cutoff": 5})
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(data))
    steps, fock = tmp_path / "s.csv", tmp_path / "f.csv"
    rc = main(["prep-cat", "--config", str(path), "--steps-out", str(steps),
               "--fock-out", str(fock)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: resonator.cutoff: 5 ") and "7 Fock levels" in err
    assert not steps.exists() and not fock.exists()
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: resonator.cutoff: 5 ") and "7 Fock levels" in err
    # the reservoir paths start from the ideal cat, which any cutoff holds
    assert main(["decohere", "--config", str(path), "--out", str(tmp_path / "d.csv")]) == 0
    assert main(["wigner", "--config", str(path), "--time", "3",
                 "--out", str(tmp_path / "wt.csv")]) == 0


def test_cat_synthesis_demo_rejects_cutoff_below_its_levels(tmp_path):
    script = Path(__file__).parent.parent / "scripts" / "cat_synthesis_demo.py"
    spec = importlib.util.spec_from_file_location("cat_synthesis_demo", script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    data = dict(CONFIG, resonator={"omega_s_MHz": 5796.0, "cutoff": 5})
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "w.csv"
    with pytest.raises(SystemExit) as exc:
        demo.main(["--config", str(path), "--out", str(out)])
    # a string exit code is printed to stderr and exits 1
    assert str(exc.value.code).startswith("error: resonator.cutoff: 5 ")
    assert "7 Fock levels" in str(exc.value.code)
    assert not out.exists()


def test_fit_rabi_rejects_nonfinite_sample(tmp_path, capsys):
    data = tmp_path / "rabi.csv"
    data.write_text("tau_ns,pe\n0,0\n10,nan\n20,0.5\n")
    out = tmp_path / "pn.csv"
    rc = main(
        ["fit-rabi", "--data", str(data), "--xi-mhz", "19.8", "--n-max", "4",
         "--out", str(out)]
    )
    assert rc == 1
    assert "pe" in capsys.readouterr().err
    assert not out.exists()


def test_cli_warning_sidecar(tmp_path):
    # a tiny cutoff triggers truncation warnings; run still succeeds
    data = dict(CONFIG, resonator={"omega_s_MHz": 5796.0, "cutoff": 12})
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "dec.csv"
    rc = main(
        ["decohere", "--config", str(path), "--t-max", "10", "--dt", "5",
         "--out", str(out)]
    )
    assert rc == 0
    sidecar = tmp_path / "dec.csv.warnings.log"
    assert sidecar.exists()
    assert "Truncation" in sidecar.read_text()


@pytest.mark.parametrize(
    "flag,value",
    [(f, v) for f in ("--t-max", "--dt", "--wigner-times", "--time", "--theta",
                      "--xi-mhz", "--noise") for v in ("nan", "inf", "-inf")],
)
def test_nonfinite_float_flag_exits_1(tmp_path, config_path, capsys, flag, value):
    out = tmp_path / "out.csv"
    if flag in ("--t-max", "--dt", "--wigner-times"):
        argv = ["decohere", "--config", config_path, "--out", str(out)]
    elif flag in ("--time", "--theta"):
        argv = ["wigner", "--config", config_path, "--out", str(out)]
    else:
        argv = ["fit-rabi", "--data", str(tmp_path / "rabi.csv"), "--n-max", "4",
                "--out", str(out)]
        if flag != "--xi-mhz":
            argv += ["--xi-mhz", "19.8"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"{flag}={value}"])
    assert exc.value.code == 1
    assert flag in capsys.readouterr().err
    assert list(tmp_path.glob("out.csv*")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner", "--time", "-5"],
        ["decohere", "--t-max", "10", "--dt", "5", "--wigner-times", "3", "-2"],
    ],
)
def test_negative_time_flag_exits_1(tmp_path, config_path, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", config_path, "--out", str(out)]) == 1
    assert list(tmp_path.glob("out.csv*")) == []


def test_fit_rabi_rejects_negative_noise(tmp_path):
    data = tmp_path / "rabi.csv"
    data.write_text("tau_ns,pe\n0,0\n10,0.2\n20,0.5\n")
    out = tmp_path / "pn.csv"
    rc = main(
        ["fit-rabi", "--data", str(data), "--xi-mhz", "19.8", "--n-max", "1",
         "--noise", "-0.01", "--out", str(out)]
    )
    assert rc == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,samples",
    [
        ("--xi-mhz", "0", 240),
        ("--xi-mhz", "-19.8", 240),
        ("--n-max", "-1", 240),
        ("--n-max", "21", 240),
        ("--n-max", "4", 3),  # needs n_max + 2 samples
        ("--seed", "-1", 240),
    ],
    ids=["--xi-mhz-0", "--xi-mhz--19.8", "--n-max--1", "--n-max-21", "--n-max-4-3-samples",
         "--seed--1"],
)
def test_fit_rabi_rejects_out_of_range_flag(tmp_path, capsys, flag, value, samples):
    trace = synthesize_rabi(np.array([0.2, 0.5, 0.3]), 19.8 * MHZ,
                            np.linspace(0, 300, samples) * NS)
    data = tmp_path / "rabi.csv"
    _write_csv(str(data), ["tau_ns", "pe"], zip(trace.taus / NS, trace.pe))
    out = tmp_path / "pn.csv"
    argv = {"--xi-mhz": "19.8", "--n-max": "4", flag: value}
    rc = main(["fit-rabi", "--data", str(data), "--out", str(out)]
              + [x for kv in argv.items() for x in kv])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert list(tmp_path.glob("pn.csv*")) == []


def test_warnings_log_groups_by_kind(tmp_path):
    # 388 of the 401 points strain the branch model at N = 8: one line, counted
    qubits = [
        {"name": name, "xi_MHz": xi, "eps_MHz": eps, "nu_MHz": nu, "K_MHz": k}
        for name, xi, eps, nu, k in DRIVE_TABLE
    ]
    data = dict(CONFIG, resonator={"omega_s_MHz": 5796.0, "cutoff": 40}, qubits=qubits)
    path = tmp_path / "n8.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "dec.csv"
    rc = main(["decohere", "--config", str(path), "--n-qubits", "8", "--t-max", "200",
               "--dt", "0.5", "--out", str(out)])
    assert rc == 0
    assert len(read_rows(out)) == 401
    lines = (tmp_path / "dec.csv.warnings.log").read_text().splitlines()
    strained = [line for line in lines if "branch model is strained" in line]
    assert len(strained) == 1
    assert strained[0].startswith("UserWarning x388: qubit excitation 1.140 ")
    assert "last: qubit excitation 4.006 " in strained[0]


def test_group_warnings_by_source_line():
    def strained(x):
        warnings.warn(f"excitation {x:.3f} is high", UserWarning)

    def same_template(x):
        warnings.warn(f"excitation {x:.3f} is high", UserWarning)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        same_template(0.5)
        for x in (1.0, 2.5, 4.0):
            strained(x)
        warnings.warn("cutoff 12 is small", TruncationWarning)
        same_template(0.75)
    # one line per source line, in order of first appearance
    assert _group_warnings(caught) == [
        "UserWarning x2: excitation 0.500 is high | last: excitation 0.750 is high",
        "UserWarning x3: excitation 1.000 is high | last: excitation 4.000 is high",
        "TruncationWarning x1: cutoff 12 is small",
    ]


def test_decohere_truncation_warning_once_per_run(tmp_path):
    # the coherent state is built once for the whole time grid
    data = dict(CONFIG, resonator={"omega_s_MHz": 5796.0, "cutoff": 12})
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "dec.csv"
    assert main(["decohere", "--config", str(path), "--n-qubits", "2", "--t-max", "20",
                 "--dt", "0.5", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 41
    lines = (tmp_path / "dec.csv.warnings.log").read_text().splitlines()
    truncation = [line for line in lines if line.startswith("TruncationWarning")]
    assert len(truncation) == 1
    assert truncation[0].startswith("TruncationWarning x1: coherent state truncation tail ")


def test_decohere_t0_row_prints_no_negative_zero(tmp_path, config_path):
    out = tmp_path / "dec.csv"
    assert main(["decohere", "--config", config_path, "--t-max", "1", "--dt", "0.5",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0,1,0,0"


def test_decohere_csv_independent_of_blas_threads(tmp_path):
    # a fresh interpreter per thread count: BLAS reads it when it loads.
    # The benchmark's grid, 401 times, runs every chunk of the kernel
    src = os.path.dirname(os.path.dirname(catbath.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "catbath.cli", "decohere", "--config", str(DEVICE_YAML),
             "--n-qubits", "8", "--t-max", "200", "--dt", "0.5", "--wigner-times", "20",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        snapshot = tmp_path / f"threads{threads}.csv.wigner_t20ns.csv"
        outputs.append((out.read_bytes(), snapshot.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_write_csv_is_atomic(tmp_path):
    path = tmp_path / "out.csv"
    _write_csv(str(path), ["a"], [(1.0,)])

    def rows():
        yield (2.0,)
        raise ArithmeticError("failed mid-write")

    with pytest.raises(ArithmeticError):
        _write_csv(str(path), ["a"], rows())
    # the earlier file is untouched and no temporary file is left behind
    assert path.read_text() == "a\n1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    with pytest.raises(ArithmeticError):
        _write_csv(str(tmp_path / "new.csv"), ["a"], rows())
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_csv_matches_the_per_value_writer(tmp_path):
    # the per-row template against csv.writer fed one _fmt string per number
    rows = [
        ("Q1", 3, np.float64(2.0 / 3.0), -0.0),
        ('a,"b"', -7, np.float64(1e-300), 1e22),
        ("", 10**15, np.float64(-0.0), 1e-300),
        ("line\nbreak", 0, np.float64(123456789.123456789), 0.1),
    ]
    header = ["name", "n", "x", "y"]
    path = tmp_path / "new.csv"
    _write_csv(str(path), header, rows)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    assert path.read_bytes() == ref.read_bytes()
    assert b'\n"a,""b""",-7,1e-300,1e+22\n' in path.read_bytes()
    with pytest.raises(TypeError):  # a name where the first row has a number
        _write_csv(str(path), header, [rows[0], ("Q2", "Q3", 1.0, 1.0)])


def test_wigner_cli_map_is_finite(tmp_path, config_path):
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", config_path, "--time", "20", "--theta", "0.7",
                 "--out", str(out)]) == 0
    w = np.array([float(r["w"]) for r in read_rows(out)])
    assert w.size == 15 and np.all(np.isfinite(w))


@pytest.mark.parametrize("re_grid,im_grid", [
    ([0.25], [-1.5]),
    ([-1.0, -0.0, 1e-9, 2.0 / 3.0], [-0.0, 0.1, 123456.789]),
])
def test_write_wigner_formats_each_row_with_12_digits(tmp_path, re_grid, im_grid):
    rng = np.random.default_rng(4)
    values = rng.uniform(-0.6, 0.6, (len(re_grid), len(im_grid)))
    values[0, 0] = -0.0
    wmap = WignerMap(np.array(re_grid), np.array(im_grid), values)
    path = tmp_path / "w.csv"
    _write_wigner(str(path), wmap)
    expected = "re,im,w\n" + "".join(
        "%.12g,%.12g,%.12g\n" % (x, y, values[i, j])
        for i, x in enumerate(re_grid)
        for j, y in enumerate(im_grid)
    )
    assert path.read_bytes() == expected.encode()
    assert b",-0\n" in path.read_bytes()  # a W of -0.0 keeps its sign, as in "%.12g"


def test_wigner_time_maps_the_ideal_cat_without_synthesis(tmp_path, config_path, monkeypatch):
    # --time starts from the ideal cat N+(|0> + |alpha>), so at t = 0 it
    # maps that cat; the synthesized one is never built
    cfg = load_config(config_path)
    re_grid, im_grid = cfg.scenario.wigner_grid.grids()
    vac = np.eye(cfg.cutoff)[0]
    with pytest.warns(TruncationWarning):
        cat = vac + coherent_state(cfg.scenario.alpha, cfg.cutoff).amps
    cat /= np.linalg.norm(cat)
    ideal = wigner_map(DensityMatrix(SpaceLayout((cfg.cutoff,)), np.outer(cat, cat)),
                       re_grid, im_grid).values.ravel()
    synthesized = tmp_path / "w.csv"
    assert main(["wigner", "--config", config_path, "--out", str(synthesized)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("wigner --time synthesized the cat")

    monkeypatch.setattr(catprep, "make_amplitude_cat", refuse)
    out = tmp_path / "w0.csv"
    assert main(["wigner", "--config", config_path, "--time", "0", "--out", str(out)]) == 0
    w = np.array([float(r["w"]) for r in read_rows(out)])
    assert np.max(np.abs(w - ideal)) < 1e-11
    w_synth = np.array([float(r["w"]) for r in read_rows(synthesized)])
    assert np.max(np.abs(w_synth - ideal)) > 1e-3


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, kind):
    path = tmp_path / "device.yaml"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"\xff\xfe")
    with pytest.raises(ConfigError, match="config file"):
        load_config(str(path))
    out = tmp_path / "d.csv"
    assert main(["decohere", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: config file")
    assert not out.exists()


def _written_configs() -> list[str]:
    """device.yaml and every YAML text the tests of this file write."""
    import copy

    texts = [DEVICE_YAML.read_text(), yaml.safe_dump(CONFIG),
             "resonator: {omega_s_MHz: 5796.0}\n"]
    detuned = yaml.safe_load(DEVICE_YAML.read_text())
    for q, delta in zip(detuned["qubits"], (-2.2, 1.4, 3.1, -0.7, 0.9, -1.6, 2.5, 0.3)):
        q["delta_MHz"] = delta
    texts.append(yaml.safe_dump(detuned))
    for bad in (float("nan"), float("inf")):
        data = copy.deepcopy(CONFIG)
        data["qubits"][0]["nu_MHz"] = bad
        texts.append(yaml.safe_dump(data))
    for cutoff in (5, 12, 40):
        resonator = {"omega_s_MHz": 5796.0, "cutoff": cutoff}
        texts.append(yaml.safe_dump(dict(CONFIG, resonator=resonator)))
    qubits = [
        {"name": name, "xi_MHz": xi, "eps_MHz": eps, "nu_MHz": nu, "K_MHz": k}
        for name, xi, eps, nu, k in DRIVE_TABLE
    ]
    texts.append(yaml.safe_dump(dict(CONFIG, qubits=qubits)))
    texts.append(yaml.safe_dump(_unordered_grid("re", 4.5, -1.5)))
    return texts


def test_libyaml_loader_parses_like_the_python_loader(tmp_path):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    texts = _written_configs()
    assert any(".nan" in text for text in texts)
    for text in texts:
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        # repr compares NaN equal to NaN and still tells 1 from 1.0 and "1"
        assert repr(fast) == repr(yaml.load(text, Loader=yaml.SafeLoader))
    path = tmp_path / "device.yaml"
    path.write_text(texts[0])
    assert load_config(str(path)) == parse_config(yaml.safe_load(texts[0]))


def test_malformed_yaml_is_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("resonator: {omega_s_MHz: 5796.0\nqubits: [\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(path))


def test_cli_runs_load_no_scipy(tmp_path, config_path):
    # a fresh interpreter: the test session itself has imported scipy
    script = f"""
import json, sys
from catbath.cli import main
from catbath.config import load_config
load_config({config_path!r})
out = {str(tmp_path)!r}
assert main(["decohere", "--config", {config_path!r}, "--n-qubits", "2", "--t-max", "4",
             "--dt", "1", "--out", out + "/d.csv"]) == 0
assert main(["wigner", "--config", {config_path!r}, "--out", out + "/w.csv"]) == 0
assert main(["prep-cat", "--config", {config_path!r}, "--steps-out", out + "/s.csv",
             "--fock-out", out + "/f.csv"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    src = os.path.dirname(os.path.dirname(catbath.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert (tmp_path / "d.csv").exists() and (tmp_path / "w.csv").exists()
