#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the harness package in this directory (release, offline) and
runs one workload of it:

    python3 perfbench/run.py --workload fault_campaign|link_farm|serve_mixed \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, with `--trace 1`
its per-layer metrics; a per-layer metric of a layer the workload never
calls reads 0. `peak_rss_mb` is the harness process's peak resident
memory, taken from the kernel when the process ends.

    python3 perfbench/run.py --self-test

checks the benchmark itself: every workload must pass its output checks
as is, and must count failed operations when its expected outputs are
deliberately corrupted.

Whole-unit timings (a campaign, a sweep, the serve traffic) are host
seconds: wall time less the share of the machine's CPU time a
hypervisor stole meanwhile (the steal column of /proc/stat), which is
plain wall time where nothing is stolen. Set-up times and per-request
latencies are wall time.

The seed drives the serve_mixed traffic (which cold kinds, which warm
repeats, the fresh spec seeds); the campaign and the farm grid are the
paper's fixed inputs. Seed 1 is the default; seed 2 is held out, to
check a claim made on other seeds.

The build goes to $CARGO_TARGET_DIR (default `.bench_build` at the
repository root); scratch files and Chrome traces go to its
`perfbench-work` subdirectory.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fault_campaign", "link_farm", "serve_mixed")
# A run that has not ended by then is killed and reported as an error.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds the harness and returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("harness build failed")
        return None
    return target_dir() / "release" / "perfbench"


def harness(binary, workload, seed, seconds, trace, corrupt=False):
    """Runs the harness; returns (result dict, peak RSS in MB) or None."""
    work = target_dir() / "perfbench-work"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", str(HERE / "expected"), "--work-dir", str(work),
           "--root", str(ROOT)]
    if corrupt:
        cmd.append("--corrupt-expectations")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        proc.stdout.close()
        # wait4 reaps this child alone and reports its own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode != 0:
        log(f"harness exited with {proc.returncode}")
        return None
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        log("harness printed no result")
        return None
    # ru_maxrss is in KiB on Linux.
    return json.loads(lines[-1][len("RESULT "):]), usage.ru_maxrss / 1024.0


def measure(spec, binary, workload, seed, seconds, trace):
    """One contract run: the harness result with every declared metric."""
    got = harness(binary, workload, seed, seconds, trace)
    if got is None:
        return None
    result, rss_mb = got
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = dict(result["metrics"])
    if not trace:
        values["peak_rss_mb"] = rss_mb
    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        log(f"harness reported undeclared metrics {unknown}")
        return None
    missing = sorted(names - set(values))
    if not trace and missing:
        log(f"harness left out end-to-end metrics {missing}")
        return None
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        for corrupt in (False, True):
            got = harness(binary, workload, 1, 1, 0, corrupt)
            if got is None:
                ok = False
                continue
            result = got[0]
            failed_frac = result["failed"] / result["attempted"]
            good = (failed_frac > 0 and not result["correct"]) if corrupt else \
                (failed_frac == 0 and result["correct"])
            ok &= good
            log(f"self-test {workload} corrupt={corrupt}: failed_frac={failed_frac:.3f} "
                f"({'ok' if good else 'WRONG'})")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return 0 if self_test(binary) else 1
    result = measure(spec, binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
