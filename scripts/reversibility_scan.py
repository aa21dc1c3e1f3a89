#!/usr/bin/env python3
"""Scan reservoir size N and watch collapse turn irreversible.

For each N, tracks the cross-branch coherence factor and the
which-path distinguishability of the reservoir over time.  With one
qubit the coherence revives periodically; as qubits with incommensurate
swap frequencies are added the revivals wash out and the record of the
field phase becomes effectively permanent.

Writes one CSV per N into the output directory.
"""

import argparse
import csv
import os

import numpy as np

from catbath import analysis, dynamics
from catbath.config import MHZ, NS

# lambda_j/2 in linear MHz for the eight reservoir qubits
LAMBDA_HALF = [4.1, 3.3, 2.2, 2.6, 2.7, 2.5, 2.0, 3.2]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=3.3)
    ap.add_argument("--t-max", type=float, default=200.0, help="ns")
    ap.add_argument("--dt", type=float, default=0.5, help="ns")
    ap.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 4, 8])
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    times = np.arange(0.0, args.t_max + args.dt, args.dt) * NS
    for n in args.sizes:
        lams = tuple(2.0 * lh * MHZ for lh in LAMBDA_HALF[:n])
        spec = dynamics.ReservoirSpec(lams, (0.0,) * n, args.alpha**2)
        path = os.path.join(args.out_dir, f"scan_n{n}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_ns", "coh_factor_abs", "distinguishability"])
            for t in times:
                coh = abs(dynamics.coherence_factor(t, spec))
                d = analysis.reservoir_distinguishability(dynamics.branch_states(t, spec))
                w.writerow([f"{t / NS:.3f}", f"{coh:.6f}", f"{d:.6f}"])
        tail = times > 0.25 * times[-1]
        coh_tail = max(
            abs(dynamics.coherence_factor(t, spec)) for t in times[tail]
        )
        print(f"N={n}: late-time max |coh| = {coh_tail:.4f}  -> {path}")


if __name__ == "__main__":
    main()
