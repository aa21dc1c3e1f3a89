"""One repetition of a benchmark workload in a fresh interpreter.

bench/run.py starts this script once per set-up probe and once per
repetition, with the BLAS thread count already fixed in the
environment.  It times set-up (interpreter start to catbath imported
and the config loaded), writes the seeded inputs, times the workload's
operations (traced, or sampled by a HostProbe, or neither), then checks
every output and writes one JSON result to --result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_INTERVAL_S = 0.2
PROBE_MIN_SAMPLES = 5  # fewer samples in an operation: use the whole repetition's
REF_NOMINAL_S = 4e-3  # reference kernel time that norm_wall_s rescales to


class HostProbe:
    """Samples how fast the host runs while the operations are timed.

    On a shared host the same code runs up to twice as slow in spells of
    seconds to minutes, and CPU time slows with wall time, so neither is
    steady from run to run.  Every PROBE_INTERVAL_S of wall time a
    SIGALRM runs a fixed reference kernel (about 4 ms) in the timed
    thread and records its duration under the current operation.  The
    probe's own time is taken out of the operation's time; `normalized`
    rescales each operation's time to a host on which the kernel takes
    REF_NOMINAL_S.

    The kernel mixes the package's three kinds of work, written out here
    so that a change to the package leaves it unchanged: a displacement
    and parity sum at cutoff 50 (Wigner points), twelve midpoint steps
    of a 6 x 6 time-dependent evolution (sideband calibration), and the
    eigenvalues of a 128 x 128 Hermitian matrix (distinguishability).
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)

        def hermitian(n):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return m + m.conj().T

        self.np = np
        self.a = np.diag(np.sqrt(np.arange(1.0, 50.0)), 1).astype(complex)
        self.rho = np.outer(np.arange(50.0), np.arange(50.0)).astype(complex) / 4e4
        self.parity = np.where(np.arange(50) % 2 == 0, 1.0, -1.0)
        self.sqrt_fact = np.sqrt(np.array([math.factorial(k) for k in range(50)], dtype=float))
        self.h6 = hermitian(6)
        self.psi6 = np.full(6, 6**-0.5, dtype=complex)
        self.h128 = hermitian(128)
        self.op = None
        self.samples: dict = {}
        self.spent: dict = {}
        for _ in range(10):  # warm-up, untimed
            self.kernel()

    def kernel(self):
        np = self.np
        beta = 0.3 + 0.2j
        gen = 1j * (beta * self.a.conj().T - np.conj(beta) * self.a)
        w, v = np.linalg.eigh(gen)
        d = (v * np.exp(-1j * w)) @ v.conj().T
        target = np.exp(-abs(beta) ** 2 / 2) * beta ** np.arange(50) / self.sqrt_fact
        np.linalg.norm(d[:, 0] - target)
        float(self.parity @ np.real(np.sum(d.conj() * (self.rho @ d), axis=0)))
        psi = self.psi6
        for k in range(12):
            h = self.h6 * math.cos(0.1 * k) + np.diag(np.arange(6.0))
            np.allclose(h, h.conj().T)
            w, v = np.linalg.eigh(h)
            psi = v @ (np.exp(-0.01j * w) * (v.conj().T @ psi))
        np.linalg.eigvalsh(self.h128)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.setdefault(self.op, []).append(time.perf_counter() - start)
        self.spent[self.op] = self.spent.get(self.op, 0.0) + time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # work shorter than one interval: sample after it
            self.op = None
            for _ in range(PROBE_MIN_SAMPLES):
                self._sample(None, None)
            self.spent.pop(None)

    def ref_s(self, op=None) -> float:
        """Kernel time during `op`, or during the whole repetition.

        The host's speed changes within a repetition, and an operation's
        time is the sum over its intervals of interval / speed.  Samples
        are evenly spaced in wall time, so the operation's mean speed is
        the mean of 1 / kernel time, here without the fastest and slowest
        tenth of the samples; a median would take the speed of one spell.
        """
        if op is not None and len(self.samples.get(op, ())) >= PROBE_MIN_SAMPLES:
            times = sorted(self.samples[op])
        else:
            times = sorted(t for ts in self.samples.values() for t in ts)
        cut = len(times) // 10
        return 1.0 / statistics.mean(1.0 / t for t in times[cut:len(times) - cut])

    def normalized(self, op_s: dict) -> dict:
        return {op: t * REF_NOMINAL_S / self.ref_s(op) for op, t in op_s.items()}


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (VmHWM)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(ops, tracer=None, probe=None) -> tuple[list, dict, float, float]:
    """Run the operations in order; return (outcomes, op_s, wall_s, cpu_s).

    An outcome is ``(value, None)`` or ``(None, error)``; one failing
    operation does not stop the others.  `op_s` maps each operation's
    name to its wall time, less the probe's time in it.
    """
    outcomes = []
    op_s = {}
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if probe is not None:
        probe.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the CLI records its own
            for op in ops:
                if tracer is not None:
                    tracer.op = op.name
                if probe is not None:
                    probe.op = op.name
                start = time.perf_counter()
                try:
                    outcomes.append((op.run(), None))
                except (Exception, SystemExit) as exc:
                    outcomes.append((None, f"{type(exc).__name__}: {exc}"))
                op_s[op.name] = time.perf_counter() - start
    finally:
        if probe is not None:
            probe.stop()
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    if probe is not None:
        for name in op_s:
            op_s[name] -= probe.spent.get(name, 0.0)
        wall_s -= sum(probe.spent.values())
        cpu_s -= sum(probe.spent.values())
    return outcomes, op_s, wall_s, cpu_s


def check_ops(ops, outcomes) -> list[dict]:
    """Failures: operations that raised or whose output check failed."""
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op, (value, error) in zip(ops, outcomes):
            if error is None:
                try:
                    problems = op.check(value)
                except Exception as exc:  # unreadable or malformed output
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            if problems:
                failures.append({"op": op.name, "problems": problems})
    return failures


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--launch", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true", help="sample host speed (HostProbe)")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    from catbath import analysis, calib, catprep, cli, config, dynamics, floquet, hilbert, tomography

    cfg = config.load_config(os.path.join(ROOT, "configs", "device.yaml"))
    result = {"setup_s": time.monotonic() - args.launch}
    if not args.setup_only:
        import numpy as np
        import scipy

        import workloads
        from tracer import Tracer

        ctx = workloads.Context(ROOT, args.workdir, args.seed, args.size, cfg)
        ops = workloads.WORKLOADS[args.workload](ctx)
        tracer = None
        if args.trace:
            modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
                analysis, calib, catprep, cli, config, dynamics, floquet, hilbert, tomography)}
            tracer = Tracer(modules)
            tracer.install()
        probe = HostProbe(np) if args.probe and tracer is None else None
        outcomes, op_s, wall_s, cpu_s = run_ops(ops, tracer, probe)
        rss = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        failures = check_ops(ops, outcomes)
        result.update(
            wall_s=wall_s,
            op_s=op_s,
            cpu_s=cpu_s,
            peak_rss_mb=rss,
            attempted=len(ops),
            failed=len(failures),
            failures=failures,
            warning_lines=workloads.warning_lines(ctx, [v for v, _ in outcomes]),
            versions={"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(np)},
        )
        if probe is not None:
            result.update(ref_s=probe.ref_s(), norm_op_s=probe.normalized(op_s),
                          ref_samples=probe.samples)
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
