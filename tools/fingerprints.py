#!/usr/bin/env python3
"""Print the bit-identity fingerprints of a build, next to its SIMD level.

    python3 tools/fingerprints.py

Runs, from the repository root's build trees (``.bench_build/vqmc_bench``
and ``build/examples/vqmc_launch``, as the verify recipe and CI build them):

  * ``vqmc_bench --workload W --seed 1 --smoke`` for every workload in
    BENCHMARK.json, and reads its ``params_fnv``;
  * ``vqmc_launch --ranks 4 --n 16 --iterations 20`` and
    ``vqmc_launch --ranks 4 --n 128 --iterations 10``, and reads each
    rank's ``params_fnv``.

A change that must keep every bit prints the same table before and after
on one host.  The values depend on the SIMD level, so nothing here is
pinned.  Exits 1 when a run fails or a launch's ranks disagree.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, ".bench_build", "vqmc_bench")
LAUNCH = os.path.join(ROOT, "build", "examples", "vqmc_launch")
LAUNCHES = (("16", "20"), ("128", "10"))


def run(command):
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=600)
    text = proc.stdout.decode(errors="replace")
    if proc.returncode != 0:
        sys.exit("fingerprints: %s exited %d:\n%s"
                 % (" ".join(command), proc.returncode, text))
    return text


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    rows = []
    simd = "?"
    # A relative scratch directory keeps the Unix socket paths short.
    with tempfile.TemporaryDirectory(prefix="fingerprints", dir=".") as scratch:
        scratch = os.path.relpath(scratch)
        for workload in workloads:
            out = os.path.join(scratch, workload + ".json")
            run([BENCH, "--workload", workload, "--seed", "1", "--smoke",
                 "--json", out, "--scratch", scratch])
            with open(out) as f:
                result = json.load(f)
            simd = result["provenance"]["simd_level"]
            rows.append(("vqmc_bench " + workload, result["params_fnv"]))
    for n, iterations in LAUNCHES:
        text = run([LAUNCH, "--ranks", "4", "--n", n,
                    "--iterations", iterations])
        values = re.findall(r"params_fnv=(0x[0-9a-f]+)", text)
        if len(values) != 4 or len(set(values)) != 1:
            sys.exit("fingerprints: vqmc_launch --n %s: rank fingerprints %s"
                     % (n, values))
        rows.append(("vqmc_launch --ranks 4 --n %s --iterations %s"
                     % (n, iterations), values[0]))
    width = max(len(name) for name, _ in rows)
    print("simd_level".ljust(width), simd)
    for name, value in rows:
        print(name.ljust(width), value)


if __name__ == "__main__":
    main()
