#!/usr/bin/env python3
"""Adam2 benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (release, into
$CARGO_TARGET_DIR or `.bench_build/`), then runs the workload in a fresh
process so that its peak RSS and CPU time belong to that workload alone.

With `--trace 0` the last line of standard output is one JSON object with
every end-to-end metric of BENCHMARK.json. With `--trace 1` the workload runs
twice, untimed and then with the hook timers on, and the last line carries
every per-layer metric instead, including `trace.overhead_frac`, the share by
which the traced run's time to estimate exceeds the untraced run's. Layers a
workload does not run report 0. The lines before it give a manifest (rev,
dirty flag, nproc, threads, seed, workload parameters), the raw per-repetition
values with min/median/max, and every output check.

Exits non-zero without printing a result when the build, a run, or the result
record fails.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# deploy_reactor_1k is not in BENCHMARK.json: the reactor runtime fails its
# frame check (honest nodes send fractions outside [0, 1], see README). It
# stays runnable so that the defect can be reproduced and the workload listed
# again once the runtime is fixed.
WORKLOADS = ("cycle_clean_100k", "cycle_churn_10k", "event_10k", "deploy_reactor_1k")
SIMULATOR_WORKLOADS = ("cycle_clean_100k", "cycle_churn_10k", "event_10k")
BUILD_TIMEOUT_S = 840
# One process measures for the budget, plus set-up, evaluation and the
# untimed set-ups that complete the minimum of three.
RUN_SLACK_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build left no binary at {binary}")
    return binary


def raise_fd_limit():
    # A 1000-node loopback cluster holds a listener and live connections
    # per node, beyond the common soft limit of 1024.
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard == resource.RLIM_INFINITY or soft < hard:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
        except (ValueError, OSError):
            pass


def run_child(binary, workload, seed, seconds, timed):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--timed", "1" if timed else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run did not finish in {seconds + RUN_SLACK_S} s")
    if done.returncode != 0:
        fail(f"{workload} run exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"{workload} run printed no result record: {e}")


def git_state():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if rev.returncode != 0 or status.returncode != 0:
        return None, None
    return rev.stdout.strip(), bool(status.stdout.strip())


def failed_checks(record):
    return [c for c in record["checks"] if not c["ok"]]


def metrics_of(names_units, produced, workload):
    out = {}
    for m in names_units:
        name, unit = m["name"], m["unit"]
        got = produced.get(name)
        if got is None:
            # This workload does not run that layer.
            out[name] = {"value": 0.0, "unit": unit}
            continue
        if got["unit"] != unit:
            fail(f"{workload}: {name} measured in {got['unit']}, BENCHMARK.json says {unit}")
        out[name] = {"value": got["value"], "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench = spec()
    binary = build()
    raise_fd_limit()

    plain = run_child(binary, args.workload, args.seed, args.seconds, timed=False)
    records = [plain]
    problems = failed_checks(plain)
    if args.trace:
        traced = run_child(binary, args.workload, args.seed, args.seconds, timed=True)
        records.append(traced)
        problems += failed_checks(traced)
        if args.workload in SIMULATOR_WORKLOADS:
            untimed, timed = plain["fingerprints"][0], traced["fingerprints"][0]
            if untimed != timed:
                problems.append({"name": "traced_fingerprint_matches_untraced", "ok": False,
                                 "detail": f"{untimed} vs {timed}"})
        produced = dict(traced["per_layer"])
        base = plain["end_to_end"]["time_to_estimate_s"]["value"]
        slowed = traced["end_to_end"]["time_to_estimate_s"]["value"]
        produced["trace.overhead_frac"] = {"value": slowed / base - 1.0, "unit": "ratio"}
        metrics = metrics_of(bench["per_layer"], produced, args.workload)
        final = traced
    else:
        metrics = metrics_of(bench["end_to_end"], plain["end_to_end"], args.workload)
        final = plain

    rev, dirty = git_state()
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": rev,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "threads": plain["manifest"]["threads"],
        "params": plain["manifest"]["params"],
    }
    print(json.dumps({"manifest": manifest, "runs": records}))
    for p in problems:
        print(f"CHECK FAILED {p['name']}: {p['detail']}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
