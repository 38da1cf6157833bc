#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload osmosis64 --seed 1 --seconds 10 --trace 0

Prints a machine header, the binary's readable report and, as the last
line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Exits non-zero when the build fails,
a check fails or the run overruns its time limit. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("osmosis64", "fattree8k", "campaign_quick")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def tool_output(cmd):
    """First line of a tool's output, or 'unknown' if it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    # Cargo resolves a relative CARGO_TARGET_DIR against the working
    # directory; pin it so the binary is found wherever run.py runs from.
    target = Path.cwd() / os.environ.get("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build_cmd = ["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        build = subprocess.run(build_cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    with open(HERE / "fingerprints.json") as f:
        recorded = json.load(f)
    expect = recorded.get(args.workload, {}).get(str(args.seed))

    print(f"machine: nproc {os.cpu_count()}, {tool_output(['rustc', '-V'])}, "
          f"rev {tool_output(['git', 'rev-parse', '--short', 'HEAD'])}, profile release")
    cmd = [str(target / "release" / "osmosis-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if expect is not None:
        cmd += ["--expect", expect]
    work = target / "perfbench-work" / str(os.getpid())
    if args.workload == "campaign_quick":
        work.mkdir(parents=True, exist_ok=True)
        cmd += ["--work-dir", str(work)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
