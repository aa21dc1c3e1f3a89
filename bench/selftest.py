"""Quick self-test of the benchmark, at tiny size (about a minute).

    python3 bench/selftest.py

1. Runs bench/run.py on every workload of BENCHMARK.json at tiny size,
   with and without tracing, and checks that each run passes its own
   output checks and prints every metric BENCHMARK.json names, with its
   unit, and no other.
2. Corrupts outputs (a NaN row, a missing row, an out-of-bound Wigner
   value, a wrong swap frequency, a failed exit code) and checks that
   each is counted as a failed operation, so that failed / attempted
   rises above zero.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(line)}")
                continue
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{where}: {line['failed']} of {line['attempted']} operations failed")
            got = {name: m.get("unit") for name, m in line["metrics"].items()}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            if missing or extra or units:
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {units}")
            bad = [n for n, m in line["metrics"].items() if not isinstance(m.get("value"), (int, float))]
            if bad:
                problems.append(f"{where}: non-numeric values {bad}")
    return problems


def edit_lines(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def replace_field(lines: list[str], row: int, col: int, value: str) -> list[str]:
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return lines


def check_corruption() -> list[str]:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    from catbath.config import load_config

    import worker
    import workloads

    cfg = load_config(os.path.join(ROOT, "configs", "device.yaml"))
    workdir = os.path.join(ROOT, ".bench_work", "selftest")

    def failures(workload: str, corrupt=None) -> int:
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        ctx = workloads.Context(ROOT, workdir, 7, "tiny", cfg)
        ops = workloads.WORKLOADS[workload](ctx)
        outcomes, *_ = worker.run_ops(ops)
        if corrupt is not None:
            outcomes = corrupt(ctx, ops, outcomes) or outcomes
        return len(worker.check_ops(ops, outcomes))

    def in_file(name, edit):
        return lambda ctx, ops, outcomes: edit_lines(ctx.path(name), edit)

    def swap_off(ctx, ops, outcomes):
        return [(v * 1.01, e) if op.name.startswith("swap_frequency") else (v, e)
                for op, (v, e) in zip(ops, outcomes)]

    def exit_code(ctx, ops, outcomes):
        return [(workloads.CliRun(2, v.stdout, "numerical failure") if op.name == "fit-rabi" else v, e)
                for op, (v, e) in zip(ops, outcomes)]

    cases = [
        ("clean decohere-n8", "decohere-n8", None, 0),
        ("clean wigner-cat", "wigner-cat", None, 0),
        ("clean calib-exact", "calib-exact", None, 0),
        ("NaN row", "decohere-n8", in_file("decohere.csv", lambda l: replace_field(l, 3, 1, "nan")), 1),
        ("missing row", "decohere-n8", in_file("decohere.csv", lambda l: l[:-1]), 1),
        ("W above 2/pi", "wigner-cat", in_file("wigner.csv", lambda l: replace_field(l, 40, 2, "0.7")), 1),
        ("truncated Wigner map", "wigner-cat", in_file("wigner.csv", lambda l: l[:-21]), 1),
        ("wrong swap frequency", "calib-exact", swap_off, 1),
        ("wrong z_cmd", "calib-exact", in_file("zcmd.csv", lambda l: replace_field(l, 2, 1, "0.3")), 1),
        ("failed exit code", "calib-exact", exit_code, 1),
    ]
    problems = []
    for label, workload, corrupt, expected in cases:
        got = failures(workload, corrupt)
        if got != expected:
            problems.append(f"{label}: {got} failed operations counted, expected {expected}")
    shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_corruption() + check_metrics(spec)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
