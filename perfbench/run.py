#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload adapt-100k|loop-10k|serve-cloudlab \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
perfbench package (perfbench/CMakeLists.txt, which compiles the phoenix
libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs rebuild incrementally. Build output goes to stderr.

stdout carries the binary's metric report and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list; the names and units are checked against that file.
The exit code is non-zero when the build, a correctness check, or that
cross-check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = Path.cwd() / path
    return path / "perfbench"


def build(out):
    """Configure (once) and build the binary; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no phoenix sources under {ROOT / 'src'}; cannot build")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            log("configure failed")
            return None
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        log("build failed")
        return None
    binary = out / "perfbench"
    return binary if binary.is_file() else None


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (no git)"
    if done.returncode != 0:
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="sabotage every scheme decision (tests only)")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1
    if binary is None:
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, "--size", args.size]
    if args.corrupt:
        cmd.append("--corrupt")
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1

    lines = done.stdout.rstrip("\n").split("\n")
    print(f"run.py: commit {commit()}, sources {source_digest()}, "
          f"nproc {os.cpu_count()}")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("the benchmark printed no result line")
        return 1

    expected = expected_metrics(args.trace == "1")
    if expected is not None:
        got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
        if got != expected:
            log("metrics do not match BENCHMARK.json: "
                f"missing {sorted(set(expected) - set(got))}, "
                f"unexpected {sorted(set(got) - set(expected))}")
            return 1
    print(lines[-1])
    if done.returncode != 0 or not result.get("correct"):
        return done.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
