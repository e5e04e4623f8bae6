#!/usr/bin/env python3
"""Checks that the benchmark's exact counts repeat bit-for-bit.

    python3 perfbench/check_determinism.py [--seeds 1 2] [--seconds 4]
                                           [--workloads raise churn async fleet]

For every workload and seed, runs the traced benchmark twice and compares
the per-layer metrics marked exact (plus net.delivered_per_vsec, the
fleet's responses per virtual second). Prints each value and exits 1 on
any mismatch or failed run. Run from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

EXACT = (
    "core.rebuilds_per_install",
    "core.installs_per_conn",
    "codegen.stub_compiles_per_install",
    "codegen.stub_clones_per_install",
    "codegen.lir_insns.h10",
    "codegen.peephole_rewrites.h10",
    "rt.pool.tasks_per_async_raise.h1",
    "rt.pool.tasks_per_async_raise.h10",
    "net.frames_per_response",
    "net.retransmissions_per_response",
    "net.delivered_per_vsec",
)


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("  %s seed %d: output checks failed (%d of %d)"
              % (workload, seed, result["failed"], result["attempted"]))
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--seconds", type=float, default=4)
    parser.add_argument("--workloads", nargs="+",
                        default=["raise", "churn", "async", "fleet"])
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            first = traced_run(workload, seed, args.seconds)
            second = traced_run(workload, seed, args.seconds)
            if first is None or second is None:
                print("%s seed %d: run failed" % (workload, seed))
                ok = False
                continue
            for name in EXACT:
                same = first[name] == second[name]
                ok = ok and same
                print("%-6s seed %-3d %-36s %-22r %s"
                      % (workload, seed, name, first[name],
                         "same" if same else "DIFFERS: %r" % second[name]))
    print("determinism: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
