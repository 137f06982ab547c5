#!/usr/bin/env python3
"""End-to-end benchmark of the qpricerd serving stack.

Usage (from the repository root):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Builds the qp library and the benchmark driver into .bench_build/ on first
use (CMake, Release), then runs one workload described in
e2ebench/workloads.json: a PricingServer in its own process, driven over
the wire protocol by two connections. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics. The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is 0 only when every quote matched the exact reference and the run was
valid. --self-test builds and runs the tests of the benchmark's own logic.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(targets):
    """Configures and builds `targets`; build output goes to stderr."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)

    try:
        build(["qpbench_logic_test"] if args.self_test else ["qpbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "qpbench_logic_test")]).returncode

    workloads = {w["name"]: w for w in config["workloads"]}
    if args.workload not in workloads or not args.seconds:
        print(f"e2ebench: need --workload (one of {sorted(workloads)}) and "
              f"--seconds", file=sys.stderr)
        return 2
    params = workloads[args.workload]["params"]
    cmd = [os.path.join(BUILD, "qpbench"), "drive",
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    cmd += [f"--{k}={v}" for k, v in params.items()]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append(f"--trace_out={traces}/{args.workload}-seed{args.seed}.tsv")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
