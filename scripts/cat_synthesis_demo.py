#!/usr/bin/env python3
"""Synthesize the even cat by the reversed-disentangling protocol and
dump its Wigner function.

Prints the per-step swap angles, reports the fidelity of the forward
synthesis against the truncated target, then rasterizes the Wigner map
of the finished state (two coherent lobes plus the interference
fringes around the midpoint).  The cat amplitude, the ancilla drive,
the Fock cutoff and the Wigner grid come from the device YAML.
"""

import argparse
import csv
import warnings

import numpy as np

from catbath import catprep, tomography
from catbath.cli import CliError, _require_synthesis_cutoff
from catbath.config import MHZ, ConfigError, load_config
from catbath.hilbert import StateVector, TruncationWarning, density_from_state, fidelity


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/device.yaml")
    ap.add_argument("--out", default="wigner_cat.csv")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
        _require_synthesis_cutoff(cfg)
    except (ConfigError, CliError) as exc:
        raise SystemExit(f"error: {exc}") from None

    alpha = cfg.scenario.alpha
    spec = catprep.CatSpec(alpha=alpha)
    xi = cfg.ancilla_xi_MHz * MHZ
    steps = catprep.backward_angles(spec, xi)
    print("step  n   theta_rad   t_ns")
    for s in steps:
        print(f"      {s.n}   {s.theta:9.4f}   {s.t * 1e9:6.2f}")

    f_trunc = catprep.truncation_fidelity(spec)
    print(f"truncation fidelity of the {catprep.N_STAR}-photon target: {f_trunc:.4f}")
    target = catprep.target_state(spec)
    vacuum = StateVector(target.layout, np.eye(target.layout.dim)[0])
    f_fwd = fidelity(catprep.apply_sequence(steps, vacuum, "forward", xi=xi), target)
    print(f"fidelity of the forward synthesis against the target: {f_fwd:.8f}")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        cat = catprep.make_amplitude_cat(spec, cfg.cutoff, xi)
        wm = tomography.wigner_map(
            density_from_state(cat), *cfg.scenario.wigner_grid.grids()
        )
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im", "w"])
        for i, x in enumerate(wm.re_grid):
            for j, y in enumerate(wm.im_grid):
                w.writerow([f"{x:.4f}", f"{y:.4f}", f"{wm.values[i, j]:.6e}"])
    mid = alpha / 2.0
    w_mid = tomography.wigner_point(density_from_state(cat), mid)
    print(f"fringe peak at beta={mid:.2f}: W = {w_mid:.4f} (2/pi = {2 / np.pi:.4f})")
    print(f"wrote {wm.values.size} Wigner samples to {args.out}")


if __name__ == "__main__":
    main()
