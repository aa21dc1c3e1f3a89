"""catbath benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload decohere-n8 --seed 1 --seconds 45 --trace 0

Run from anywhere; the repository root is found from this file.  Every
workload reads configs/device.yaml; BENCHMARK.json says why each was
chosen and which layers it stresses or bypasses.

    decohere-n8  catbath decohere --n-qubits 8 --t-max 200 --dt 0.5
    wigner-cat   catbath wigner on the config's 121 x 101 grid
    calib-exact  swap_frequency for the 8 device qubits, exact block
                 evolution at N = 8, cutoff 40, and the short
                 subcommands (prep-cat, floquet-calib, fit-rabi,
                 disting, crosstalk-solve) on seeded CSV inputs

Each set-up probe and each repetition is a fresh interpreter
(bench/worker.py) with one BLAS thread.  After one untimed warm-up
probe, the run alternates a repetition of the workload and a set-up
probe while the next pair is predicted to end within --seconds, and
fills the time left with set-up probes.

--trace 0 prints the end-to-end metrics: norm_wall_s (one workload
run: the sum over its operations of each operation's median time across
repetitions, each time rescaled by the worker's HostProbe to a host on
which a fixed reference kernel takes 4 ms), setup_s (median over the
probes and repetitions) and peak_rss_mb (median peak resident memory
of a repetition).  Raw wall times are in the report line: on a shared
host they swing by up to twice between runs of the same code.
--trace 1 alternates traced and untraced repetitions and prints the
per-layer metrics: calls and self time of each traced public function,
self time per module, the CPU time and CLI warning lines of a
repetition, and the tracing overhead (traced minus untraced wall time).
failed / attempted is in the report line; its parts are the result's
"failed" and "attempted".

The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the environment, every repetition's values, quartiles and
failures.  Outputs, results and spans stay in
.bench_work/<workload>-trace<0|1>/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKLOADS = ("decohere-n8", "wigner-cat", "calib-exact")
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # fixed before numpy loads in the worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, workdir: str, timeout: float, *, setup_only=False, traced=False,
          probe=False) -> dict:
    os.makedirs(workdir, exist_ok=True)
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(traced)), "--workdir", workdir,
           "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    if probe:
        cmd.append("--probe")
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launch", repr(launch)], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    out["duration_s"] = time.monotonic() - launch
    return out


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(reps: list[dict]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        **reps[0]["versions"],
        "platform": platform.platform(),
        "commit": commit(),
    }


def describe(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    out["values"] = values
    return out


def typical_wall(reps: list[dict], key: str = "op_s") -> float:
    """Sum over operations of each operation's median time across repetitions.

    For a single-operation workload this is the median repetition.  For
    calib-exact it keeps a burst of host contention that slows a few
    operations of one repetition out of the total.
    """
    return sum(statistics.median(r[key][op] for r in reps) for op in reps[0][key])


def layer_metrics(reps: list[dict]) -> dict:
    """Per-layer metrics: medians over traced repetitions."""
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        unit = "count" if name.endswith(".calls") else "s"
        metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["cli.cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in traced), "unit": "s"}
    metrics["cli.warning_lines"] = {
        "value": statistics.median(r["warning_lines"] for r in traced), "unit": "count"}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_wall - statistics.median(r["wall_s"] for r in untraced), "unit": "s"}
    return metrics


def run(args) -> tuple[dict, dict]:
    rundir = os.path.join(ROOT, ".bench_work", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    limit = min(args.seconds, RUN_LIMIT_S)
    warmup = spawn(args, os.path.join(rundir, "warmup"), left(), setup_only=True)
    probes: list[dict] = []
    reps: list[dict] = []

    def probe() -> None:
        probes.append(spawn(args, os.path.join(rundir, f"setup{len(probes)}"), left(),
                            setup_only=True))

    def probe_s() -> float:
        return statistics.median(r["duration_s"] for r in [warmup] + probes)

    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        rep = spawn(args, os.path.join(rundir, f"rep{len(reps)}"), left(), traced=traced,
                    probe=not args.trace)
        rep["traced"] = traced
        reps.append(rep)
        if args.trace and len(reps) < 2:
            continue  # a traced and an untraced repetition give the overhead
        rep_s = statistics.median(r["duration_s"] for r in reps)
        if time.monotonic() - start + probe_s() + rep_s > limit:
            break
        # probes spread over the run, so one slow spell of the host does
        # not set the whole set-up median
        probe()
    # time too short for another repetition goes to set-up probes
    while time.monotonic() - start + probe_s() <= limit:
        probe()

    setups = [r["setup_s"] for r in probes + reps]
    timed = [r for r in reps if not r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        metrics = layer_metrics(reps)
    else:
        metrics = {
            "norm_wall_s": {"value": typical_wall(timed, "norm_op_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in timed),
                            "unit": "MiB"},
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "elapsed_s": time.monotonic() - start,
        "environment": environment(reps),
        "setup_s": describe(setups),
        "wall_s": describe([r["wall_s"] for r in timed]),
        "typical_wall_s": typical_wall(timed),
        "ref_s": describe([r["ref_s"] for r in timed]) if not args.trace else None,
        "op_s": {op: describe([r["op_s"][op] for r in timed]) for op in timed[0]["op_s"]},
        "traced_wall_s": describe([r["wall_s"] for r in reps if r["traced"]]) if args.trace else None,
        "peak_rss_mb": describe([r["peak_rss_mb"] for r in timed]),
        "cpu_s": describe([r["cpu_s"] for r in timed]),
        "failed_frac": failed / attempted,
        "failures": [f for r in reps for f in r["failures"]],
    }
    with open(os.path.join(rundir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=1)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one catbath benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's quick version of each workload")
    args = parser.parse_args(argv)
    for need in (os.path.join("src", "catbath", "__init__.py"), os.path.join("configs", "device.yaml")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}", file=sys.stderr)
            return 2
    try:
        report, line = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in report["failures"]:
        print(f"failed: {failure['op']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
