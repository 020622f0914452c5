#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: bitemporal_query, durable_dml, wire_probe, or all to run the
three in turn (each prints its own result). The build goes to
$CARGO_TARGET_DIR (default perfbench/target); the run keeps its data
under .perfbench-data/ in the current directory and removes it at the
end. The last line of standard output is the run's JSON result; build
output goes to standard error. A build or check failure exits non-zero.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Longest a run may take once built; the build itself is not limited.
RUN_TIMEOUT_S = 170
WORKLOADS = ["bitemporal_query", "durable_dml", "wire_probe"]


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at:at + 1] == ["all"]:
        runs = [args[:at] + [w] + args[at + 1:] for w in WORKLOADS]
    else:
        runs = [args]
    return max(run_one(target, a) for a in runs)


def run_one(target, args):
    data = os.path.abspath(os.path.join(".perfbench-data", str(os.getpid())))
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench"), *args, "--data-dir", data],
            timeout=RUN_TIMEOUT_S,
        )
        return run.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(data))
        except OSError:
            pass
        # Finish the file-system work the removal queued (journal
        # commits, freed-block discards) here, not in the next run's
        # fsyncs.
        os.sync()


if __name__ == "__main__":
    sys.exit(main())
