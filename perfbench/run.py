#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pcmac simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the measuring binary (``perfbench/src/main.rs``) in release mode,
then starts it in a fresh process once per iteration, one iteration at a
time. The number of iterations is ``--seconds`` divided by the
workload's nominal iteration time, so a run does the same work on every
host and takes about ``--seconds`` on the host the nominal times were
measured on. Iteration ``i`` generates its own inputs from the seed and
``i``, runs the workload through the simulator's public API, checks the
results and reports its timings. This script checks every iteration's
fingerprint, takes the median of each end-to-end metric over the
iterations (and, traced, the per-layer metrics of the median iteration)
and prints, as the last line of standard output, one JSON object::

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (see ``METHOD.md``). The exit code is 0
only when every run was correct.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

WORKLOADS = ("paper_saturation", "dense_static", "scale_131k")

# End-to-end metrics and their units, in output order.
E2E = {
    "setup_s": "s",
    "run_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MiB",
    "resume_s": "s",
}

# Cells per iteration (paper_saturation: 4 variants x 4 seeds) and how
# many of them are checkpointed and resumed (the PCMAC ones), to count the
# runs of an iteration that crashed.
CELLS = {"paper_saturation": 16, "dense_static": 1, "scale_131k": 1}
HOOKED = {"paper_saturation": 4, "dense_static": 1, "scale_131k": 1}

# Wall seconds of one untraced and one traced iteration on the host of
# METHOD.md; they set how many iterations fit into --seconds.
NOMINAL_S = {
    "paper_saturation": (7.0, 16.0),
    "dense_static": (2.7, 8.0),
    "scale_131k": (4.2, 9.0),
}

# A child that has not finished after this many seconds is killed and
# its runs count as failed; with OVERRUN it keeps a run under 180 s.
CHILD_TIMEOUT_S = 100
# No iteration starts once this many times --seconds have passed, so a
# run on a host much slower than the nominal one still ends in time.
OVERRUN = 2.0


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name == "snap.bytes":
        return "bytes"
    if name.endswith(("_frac", "_ratio", "_per_query", "_per_candidate")):
        return "ratio"
    return "count"


def nominal_runs(workload, trace):
    """Runs one iteration makes: the untraced cells plus the resumes, and
    traced the hook-free references plus one traced run per cell."""
    runs = CELLS[workload] + HOOKED[workload]
    return runs * 2 if trace else runs


def build():
    """Builds the measuring binary; returns its path, or None on failure."""
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("perfbench: the simulator sources (crates/) are not here", file=sys.stderr)
        return None
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return target / "release" / "pcmac-perfbench"


def run_child(binary, args, workload, iteration):
    """One iteration in a fresh process: its parsed report, or an error."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--iteration", str(iteration), "--scale", args.scale]
    cmd += ["--trace"] if args.trace else []
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"iteration timed out after {CHILD_TIMEOUT_S} s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        return None, f"iteration exited with {done.returncode}: {' | '.join(tail)}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError) as e:
        return None, f"iteration printed no report: {e}"


def measure(binary, args, workload):
    """Runs every iteration of one workload; returns the result object."""
    print(f"perfbench: host_cores={os.cpu_count()} workload={workload} "
          f"seed={args.seed} scale={args.scale} trace={args.trace}", file=sys.stderr)
    expected = EXPECTED[args.scale][workload].get(str(args.seed), [])
    iterations = max(1, int(args.seconds // NOMINAL_S[workload][args.trace]))
    samples = []
    attempted = failed = 0
    errors = []
    start = time.monotonic()
    for i in range(iterations):
        if time.monotonic() - start > OVERRUN * args.seconds:
            print(f"perfbench: stopped after {i} of {iterations} iterations: "
                  f"{OVERRUN} x {args.seconds} s passed", file=sys.stderr)
            break
        report, error = run_child(binary, args, workload, i)
        if report is None:
            attempted += nominal_runs(workload, args.trace)
            failed += nominal_runs(workload, args.trace)
            errors.append(error)
            continue
        attempted += report["attempted"]
        failed += report["failed"]
        errors += report["errors"]
        if not report["e2e"]:
            continue  # the iteration failed before it measured anything
        fp = report["fingerprint"]
        e2e = " ".join(f"{k}={v:.6g}" for k, v in report["e2e"].items())
        print(f"perfbench: iteration {i}: fingerprint {fp} {e2e} "
              f"events={report['layer']['engine.events']:.0f}", file=sys.stderr)
        if i < len(expected) and fp != expected[i]:
            # Every untraced run of the iteration fed the fingerprint.
            failed += CELLS[workload]
            errors.append(f"iteration {i}: fingerprint {fp} != expected {expected[i]}")
        samples.append(report)

    for e in errors:
        print(f"perfbench: FAIL {e}", file=sys.stderr)

    metrics = {}
    if samples:
        if args.trace:
            # One whole iteration, the one with the median total time, so
            # the per-layer figures keep adding up (self times to the loop,
            # spans to the total) as they did within it.
            median = sorted(samples, key=lambda s: s["e2e"]["total_s"])[(len(samples) - 1) // 2]
            for name, value in median["layer"].items():
                metrics[name] = {"value": value, "unit": layer_unit(name)}
            metrics["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
            metrics["bench.iterations"] = {"value": len(samples), "unit": "count"}
        else:
            for name, unit in E2E.items():
                metrics[name] = {"value": statistics.median(s["e2e"][name] for s in samples),
                                 "unit": unit}
    return {"correct": failed == 0 and bool(samples), "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs every workload in turn and prints one line each")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke shrinks every workload (the benchmark's own tests)")
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.workload != "all":
        result = measure(binary, args, args.workload)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    correct = True
    for workload in WORKLOADS:
        result = measure(binary, args, workload)
        correct = correct and result["correct"]
        print(json.dumps({"workload": workload, **result}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
