#!/usr/bin/env python3
"""Build and run the hetsim benchmark (see hetbench/README.md).

One run, as the benchmark contract calls it, from the repository root:

    python3 hetbench/run.py --workload tree-son --seed 1 --seconds 20 --trace 0

builds hetbench/ (and the hetsim libraries it links) into .bench_build/,
runs the requested workload and passes its output through; the last line
is the JSON result. Everything else:

    python3 hetbench/run.py --all [--seed N] [--seconds S]
        oracle self-tests, then every workload untraced and traced, a
        table of every metric, and BENCHMARK.json rewritten from the
        benchmark's own tables
    python3 hetbench/run.py --test
        the oracle self-tests only

Exits non-zero, without a result line, when the build or the run fails.
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
BUILD = ROOT / ".bench_build" / "hetbench"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then bring `targets` up to date. Output to stderr."""
    if not (ROOT / "src" / "runtime" / "runtime.h").is_file():
        log("run.py: hetsim sources (src/) not found next to hetbench/")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_env():
    env = dict(os.environ)
    # One process, a 4-node cluster and at most 4 pool threads: the load
    # fits a 4-core machine and does not grow with the host's core count.
    env.setdefault("HETSIM_THREADS", str(min(4, os.cpu_count() or 1)))
    if "HETBENCH_GIT_SHA" not in env:
        try:
            env["HETBENCH_GIT_SHA"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            env["HETBENCH_GIT_SHA"] = "unknown"
    return env


def manifest():
    out = subprocess.run([str(BUILD / "hetbench"), "--manifest"],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run_workload(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns the parsed result line or None."""
    cmd = [str(BUILD / "hetbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=run_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: hetbench exited with {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    table = manifest()["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected or set(result) != {"correct", "attempted", "failed",
                                          "metrics"}:
        log("run.py: result line does not match the benchmark's metric tables")
        return None
    if echo:
        print("\n".join(lines), flush=True)
    return result


def benchmark_json(m):
    return {
        "command": ["python3", "hetbench/run.py"],
        "paths": ["hetbench"],
        "run_seconds": m["run_seconds"],
        "workloads": m["workloads"],
        "end_to_end": m["end_to_end"],
        "per_layer": m["per_layer"],
    }


def run_all(seed, seconds):
    if subprocess.run([str(BUILD / "hetbench_oracle_test")]).returncode:
        return 1
    m = manifest()
    ok = True
    for w in m["workloads"]:
        for trace in (0, 1):
            result = run_workload(w["name"], seed, seconds, trace, echo=False)
            if result is None or not result["correct"] or result["failed"]:
                ok = False
                log(f"run.py: {w['name']} (trace {trace}) failed")
                continue
            print(f"{w['name']} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(m), indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.test or args.workload):
        parser.error("give --workload, --all or --test")

    targets = ["hetbench"]
    if args.all or args.test:
        targets.append("hetbench_oracle_test")
    if not build(targets):
        log("run.py: build failed")
        return 1
    seconds = args.seconds if args.seconds is not None else manifest()["run_seconds"]
    if args.test:
        return subprocess.run([str(BUILD / "hetbench_oracle_test")]).returncode
    if args.all:
        return run_all(args.seed, seconds)
    return 0 if run_workload(args.workload, args.seed, seconds, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
