#!/usr/bin/env python3
"""Synthesize the even cat by the reversed-disentangling protocol and
dump its Wigner function.

Writes the Wigner map of the finished state (two coherent lobes plus
the interference fringes around the midpoint) by running ``catbath
wigner``, then prints the per-step swap angles, the fidelity of the
forward synthesis against the truncated target and W at the fringe
peak.  The cat amplitude, the ancilla drive, the Fock cutoff and the
Wigner grid come from the device YAML; a YAML the CLI refuses ends the
demo with the CLI's exit code and ``error:`` line.
"""

import argparse
import warnings

import numpy as np

from catbath import catprep, tomography
from catbath.cli import main as catbath
from catbath.config import MHZ, load_config
from catbath.hilbert import StateVector, TruncationWarning, density_from_state, fidelity


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/device.yaml")
    ap.add_argument("--out", default="wigner_cat.csv")
    args = ap.parse_args(argv)
    code = catbath(["wigner", "--config", args.config, "--out", args.out])
    if code:
        return code

    cfg = load_config(args.config)
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

    # the CLI's run logged the cutoff's warnings next to the map
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        cat = catprep.make_amplitude_cat(spec, cfg.cutoff, xi)
    mid = alpha / 2.0
    w_mid = tomography.wigner_point(density_from_state(cat), mid)
    print(f"fringe peak at beta={mid:.2f}: W = {w_mid:.4f} (2/pi = {2 / np.pi:.4f})")
    re_grid, im_grid = cfg.scenario.wigner_grid.grids()
    print(f"wrote {re_grid.size * im_grid.size} Wigner samples to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
