#!/usr/bin/env python3
"""Scan reservoir size N and print the late-time coherence of each run.

For each N, runs ``catbath decohere`` on the device YAML, which tracks
the cross-branch coherence factor, the entropy of qubit 0 and the
which-path distinguishability of the reservoir over time, and prints
the largest ``coh_factor_abs`` over the last three quarters of the
run.  That column is the photon-resolved branch model's |coh|
(``dynamics.analytic_qubit_states``), exact at N = 1 and approximate
for N >= 2, so the printed value is that model's late-time revival.

Writes one ``decohere`` CSV per N into the output directory.
"""

import argparse
import os

import numpy as np

from catbath import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/device.yaml")
    ap.add_argument("--t-max", type=float, default=200.0, help="ns")
    ap.add_argument("--dt", type=float, default=0.5, help="ns")
    ap.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 4, 8])
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for n in args.sizes:
        path = os.path.join(args.out_dir, f"scan_n{n}.csv")
        code = cli.main(
            ["decohere", "--config", args.config, "--n-qubits", str(n),
             "--t-max", str(args.t_max), "--dt", str(args.dt), "--out", path]
        )
        if code:
            return code
        trace = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
        t_ns, coh = trace["t_ns"], trace["coh_factor_abs"]
        # the last point is late on any grid, a one-point run included
        coh_tail = coh[t_ns > 0.25 * t_ns[-1]].max(initial=coh[-1])
        print(f"N={n}: late-time max |coh| = {coh_tail:.4f}  -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
