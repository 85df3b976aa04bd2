#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, depending on the simulator crates by path) in release
mode into `$CARGO_TARGET_DIR`, `.bench_build` when unset, then replaces
this process with the benchmark binary, so its output and exit code are
the benchmark's. Traced runs (`--trace 1`) write a Chrome trace-event
file per workload and seed under `perfbench/out/`.

Exits non-zero without printing a result when the build fails, for
example when the simulator sources are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    argv = [exe, *sys.argv[1:]]
    if "--trace-out" not in argv:
        argv += ["--trace-out", os.path.join(HERE, "out")]
    sys.stdout.flush()
    os.execv(exe, argv)
    return 1  # not reached: execv replaces the process or raises


if __name__ == "__main__":
    sys.exit(main())
