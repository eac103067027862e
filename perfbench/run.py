#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a Cargo workspace of its own that depends
on the repository's crates by path) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs one workload:

* `--trace 0`: the end-to-end metrics. `setup_s` is the median over
  SETUP_RUNS fresh processes: SETUP_RUNS - 1 that stop after set-up, and
  the timed run itself.
* `--trace 1`: the per-layer metrics, from an untraced and a traced phase
  of the same seed in one process.

Every line but the last is for people. The last line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. The exit
code is non-zero when the build fails, the run fails, or any output check
fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_RUNS = 9
# The whole run, build excluded, must end well inside 180 s.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, env):
    manifest = root / "perfbench" / "Cargo.toml"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def run_bin(binary, args, root, deadline):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before the run finished")
    try:
        done = subprocess.run(
            [str(binary), *args], cwd=root, stdout=subprocess.PIPE, text=True, timeout=left
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded its time budget")
    lines = done.stdout.splitlines()
    return done.returncode, lines


def last_json(lines):
    if not lines:
        fail("run printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"run's last line is not JSON: {e}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload}")
    want = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)
    build(root, env)
    binary = target / "release" / "perfbench"

    deadline = time.monotonic() + RUN_BUDGET_S
    data = root / ".perfbench_data" / str(os.getpid())
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    try:
        setups = []
        if not a.trace:
            for i in range(SETUP_RUNS - 1):
                code, lines = run_bin(
                    binary, [*base, "--setup-only", "--dir", str(data / f"setup{i}")], root, deadline
                )
                if code != 0:
                    fail(f"set-up run exited with {code}")
                setups.append(last_json(lines)["setup_s"])
        args = [*base, "--seconds", str(a.seconds), "--trace", str(a.trace), "--dir", str(data / "run")]
        code, lines = run_bin(binary, args, root, deadline)
    finally:
        shutil.rmtree(data, ignore_errors=True)
        try:
            data.parent.rmdir()
        except OSError:
            pass
    result = last_json(lines)
    for line in lines[:-1]:
        print(line)
    if code not in (0, 1):
        fail(f"run exited with {code}")
    metrics = result["metrics"]
    if not a.trace:
        setups.append(metrics["setup_s"]["value"])
        print(f"setup_s over {len(setups)} processes: {', '.join(f'{s:.4f}' for s in setups)}")
        metrics["setup_s"]["value"] = statistics.median(setups)
    missing = [n for n in want if n not in metrics]
    extra = [n for n in metrics if n not in want]
    if missing or extra:
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}")
    out = {
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in want},
    }
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
