#!/usr/bin/env python3
"""Build and run the MCCM benchmark.

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steady 5 --workload serve     # spread check

A run builds the `mccm-perfbench` package (a workspace of its own that
depends on the repository's crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), records the environment, runs one workload and
passes its output through. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

`--steady N` runs the workload twice on seeds 1..N and reports, for each
end-to-end metric of BENCHMARK.json, each set's spread (interquartile
range over median) and the drift between the two sets' medians, against
the metric's bound.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary and returns its path; exits on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build chatter goes to stderr so stdout stays the result stream.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode or 1)
    return os.path.join(target, "release", "mccm-perfbench")


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        # The ceiling keeps git from taking the commit of a repository
        # that merely encloses an exported checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, parsed result or None)."""
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # A session of its own, so a timeout also stops the daemon and
    # simulator children the run started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"error: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s\n")
        return [], None
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"error: {workload} seed {seed} exited with {proc.returncode}\n")
        return lines, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return lines, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return lines, None
    return lines, result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = list(range(1, args.steady + 1))
    sets = []
    for _ in range(2):
        runs = []
        for seed in seeds:
            _, result = run_once(binary, args.workload, seed, args.seconds, 0)
            if result is None or not result["correct"]:
                sys.exit(f"error: run on seed {seed} failed")
            runs.append(result["metrics"])
        sets.append(runs)
    print(f"steadiness of {args.workload} over seeds {seeds}, two sets")
    print(f"{'metric':<20} {'bound':>6} {'spread1':>8} {'spread2':>8} {'drift':>8}  verdict")
    ok = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[run[name]["value"] for run in runs] for runs in sets]
        s1, s2 = spread(values[0]), spread(values[1])
        m1, m2 = statistics.median(values[0]), statistics.median(values[1])
        worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
        good = worse <= bound and (name == "setup_s" or max(s1, s2) <= bound)
        ok &= good
        print(f"{name:<20} {bound:>6.3f} {s1:>8.4f} {s2:>8.4f} {worse:>8.4f}  "
              f"{'ok' if good else 'OVER BOUND'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["optimize", "serve", "validate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run seeds 1..N twice and report spreads against bounds")
    args = parser.parse_args()
    binary = build()
    if args.steady:
        return steady(binary, args)
    print("environment " + json.dumps(environment()), flush=True)
    lines, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
