#!/usr/bin/env python3
"""Smoke test of the benchmark binary (the vqmc_bench_smoke ctest).

    python3 smoke.py <path to vqmc_bench>

Runs every workload at --smoke scale, untraced and then traced, and
asserts that every output check passed, that the result JSON parses with
every metric present, and that the traced run ended with the same
parameters as the untraced one. Timings are not asserted.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def run(binary, workload, scratch, traced):
    out = os.path.join(scratch, "%s-%d.json" % (workload, traced))
    command = [binary, "--workload", workload, "--seed", "1", "--seconds",
               "0.6", "--smoke", "--json", out, "--scratch", scratch]
    if traced:
        command += ["--trace", os.path.join(scratch, workload + ".trace.json")]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=60)
    text = proc.stdout.decode(errors="replace")
    if proc.returncode != 0:
        raise AssertionError("%s traced=%d exited %d:\n%s"
                             % (workload, traced, proc.returncode, text))
    with open(out) as f:
        result = json.load(f)
    failed = [name for name, ok in result["checks"].items() if not ok]
    assert result["correct"] and not failed, (workload, failed)
    section = result["per_layer" if traced else "end_to_end"]
    assert section and all(m["value"] is not None for m in section.values())
    return result


def main():
    binary = os.path.abspath(sys.argv[1])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    # A relative scratch directory keeps the Unix socket paths short.
    with tempfile.TemporaryDirectory(prefix="smoke", dir=".") as scratch:
        scratch = os.path.relpath(scratch)
        for workload in workloads:
            plain = run(binary, workload, scratch, False)
            traced = run(binary, workload, scratch, True)
            assert plain["params_fnv"] == traced["params_fnv"], workload
            assert traced["checks"]["trace.same_parameters_as_untraced"]
            print("%s: ok" % workload)


if __name__ == "__main__":
    main()
