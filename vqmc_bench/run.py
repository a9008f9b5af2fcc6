#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 vqmc_bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is reused
by later runs of the same checkout; a build directory configured from
another checkout is refused. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with every
end-to-end metric of BENCHMARK.json when --trace is 0 and every
per-layer metric when it is 1. The exit status is 0 only when the run completed and every
output check passed; a failed build or run prints no result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, log=None):
    if log and os.path.exists(log):
        with open(log, errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    sys.stderr.write("run.py: %s\n" % message)
    sys.exit(2)


def configured_source(cache):
    """The source directory a CMakeCache.txt was configured from, or None."""
    with open(cache, errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(build_dir, env):
    """Configure once, then bring vqmc_bench up to date; return its path."""
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build directory configured from another checkout would build and
        # time that checkout's sources.
        source = configured_source(cache)
        if source is None or os.path.realpath(source) != os.path.realpath(HERE):
            fail("%s was configured from %s, not %s: remove it or point "
                 "CARGO_TARGET_DIR elsewhere" % (build_dir, source, HERE))
    else:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "vqmc_bench",
                  "-j", jobs])
    with open(log, "a") as out:
        for step in steps:
            try:
                code = subprocess.call(step, stdout=out,
                                       stderr=subprocess.STDOUT, env=env,
                                       cwd=ROOT)
            except OSError as e:
                fail("cannot run %s: %s" % (step[0], e))
            if code != 0:
                fail("build step failed: %s" % " ".join(step), log)
    return os.path.join(build_dir, "vqmc_bench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.check_output(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                stderr=subprocess.DEVNULL).decode().strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "vqmc_bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    benchmark_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src")):
        fail("no repository sources next to %s" % HERE)
    with open(benchmark_json) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (expected one of %s)"
             % (args.workload, names))

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    runs = os.path.join(build_dir, "runs")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    # Keep compiler and program temporaries inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp, OMP_NUM_THREADS="1")
    binary = build(build_dir, env)

    tag = "%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    result_path = os.path.join(runs, tag + ".json")
    # Unix socket paths are limited to 107 bytes: pass a relative one.
    scratch = os.path.relpath(runs, ROOT)
    if len(scratch) > 60:
        scratch = "."
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--json", result_path,
               "--scratch", scratch, "--commit", source_id()]
    if args.trace:
        command += ["--trace", os.path.join(runs, tag + ".trace.json")]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code not in (0, 1) or not os.path.exists(result_path):
        fail("vqmc_bench exited with status %d" % code)

    with open(result_path) as f:
        result = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        measured = result[section].get(m["name"])
        if measured is None or measured["unit"] != m["unit"]:
            fail("metric %s missing or in the wrong unit" % m["name"])
        value = measured["value"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(result["correct"]) and code == 0 and all(
        m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
