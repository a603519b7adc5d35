#!/usr/bin/env python3
"""libvcdn benchmark: builds the benchmark binary from source and runs one
workload.

    python3 perfbench/run.py --workload fleet_stream|fleet_mmap|edge_serve|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The binary runs the workload in a fresh
process and checks every output against its digests. This script prints the
binary's report, then one JSON line: with --trace 0 it holds the end_to_end
metrics of BENCHMARK.json, with --trace 1 the per_layer ones. A per-layer
metric of a layer the workload does not run reads 0. Each result is also
written, with the machine and build provenance, to <build>/results/.
With --workload all it runs every workload in turn, each in its own process,
and the last line maps each workload to its result. The exit code is nonzero
when the build fails or an output check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_stream", "fleet_mmap", "edge_serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
                      "--target", "vcdn_perfbench"])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                raise SystemExit("build step failed: " + " ".join(step))
    return os.path.join(out, "vcdn_perfbench")


def source_version():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()


def run_one(binary, out, workload, args, wanted):
    """Runs one workload in a fresh process; returns its result object."""
    workdir = os.path.join(out, "work")
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("the benchmark binary timed out")
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        raise SystemExit("the benchmark binary exited with %d and no result" % proc.returncode)
    measured = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"] if len(lines) >= 2 and '"meta"' in lines[-2] else {}
    meta["source"] = source_version()
    for line in lines[:-1]:
        print(line)

    correct = bool(measured["correct"]) and proc.returncode == 0
    metrics = {}
    for entry in wanted:
        got = measured["metrics"].get(entry["name"])
        if got is None:
            if not correct:
                continue  # a failed run may stop before measuring
            if not args.trace:
                raise SystemExit("the workload did not measure " + entry["name"])
            got = {"value": 0.0, "unit": entry["unit"]}  # layer not on this path
        if got["unit"] != entry["unit"]:
            raise SystemExit("unit of %s is %s, BENCHMARK.json says %s"
                             % (entry["name"], got["unit"], entry["unit"]))
        metrics[entry["name"]] = {"value": got["value"], "unit": entry["unit"]}
    result = {"correct": correct,
              "attempted": int(measured["attempted"]), "failed": int(measured["failed"]),
              "metrics": metrics}

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump({"meta": meta, "result": result, "measured": measured["metrics"]}, f, indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise SystemExit("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out = build_dir()
    binary = build(out)
    if args.workload != "all":
        result = run_one(binary, out, args.workload, args, wanted)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    results = {}
    for workload in WORKLOADS:
        print("== %s" % workload, flush=True)
        results[workload] = run_one(binary, out, workload, args, wanted)
    print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
