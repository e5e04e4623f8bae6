#!/usr/bin/env python3
"""Deterministic self-test for tools/bench_diff.py.

The CI bench gate is only trustworthy if it provably fails on a real
regression and passes on identical inputs, so this test drives the tool
through both paths (plus the allowlist, missing-row, and improvement
cases) with synthetic fixtures — no benchmark noise involved. Registered
in tests/CMakeLists.txt so `ctest` runs it locally and under CI.

Usage: bench_diff_selftest.py /path/to/bench_diff.py
"""

import json
import os
import subprocess
import sys
import tempfile

DISPATCH_DOC = {
    "bench": "dispatch_matrix",
    "rows": [
        {"mode": "sync", "shards": 1, "threads": 1, "handlers": 10,
         "raises_per_sec": 28000000, "ns_per_raise": 35.7},
        {"mode": "async", "shards": 16, "threads": 4, "handlers": 10,
         "raises_per_sec": 1200000, "ns_per_raise": 833.0},
    ],
}

ABLATION_LINES = """\
Ablation of dispatcher design decisions (ns per raise)
  this human-readable line is ignored by the parser
{"bench":"ablation","case":"ten_handlers_full","mean_ns":40.1,"p50_ns":39,"p90_ns":44,"p99_ns":60,"max_ns":1200}
{"bench":"ablation","case":"sampled_128_over_off","p50_ratio":1.12}
"""


def write(tmp, name, content):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as f:
        if isinstance(content, str):
            f.write(content)
        else:
            json.dump(content, f)
    return path


def run(tool, *argv):
    proc = subprocess.run(
        [sys.executable, tool, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def expect(label, got, want, output):
    if got != want:
        print(f"FAIL {label}: exit {got}, want {want}\n{output}")
        return False
    print(f"ok   {label}")
    return True


def main():
    if len(sys.argv) != 2:
        print("usage: bench_diff_selftest.py /path/to/bench_diff.py")
        return 2
    tool = sys.argv[1]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        base = write(tmp, "base.json", DISPATCH_DOC)

        # Identical input: the gate must pass on a baseline-vs-baseline
        # diff, the invariant CI checks on every run.
        code, out = run(tool, base, base)
        ok &= expect("identical inputs pass", code, 0, out)

        # A 2x latency regression in one cell must fail the gate.
        slow = json.loads(json.dumps(DISPATCH_DOC))
        slow["rows"][0]["ns_per_raise"] = 71.4
        slow["rows"][0]["raises_per_sec"] = 14000000
        slow_path = write(tmp, "slow.json", slow)
        code, out = run(tool, base, slow_path)
        ok &= expect("2x regression fails", code, 1, out)
        if "ns_per_raise" not in out or "raises_per_sec" not in out:
            print(f"FAIL regression report names the metrics:\n{out}")
            ok = False

        # The same regression passes when the series is allowlisted.
        code, out = run(tool, base, slow_path,
                        "--allow", "sync/1/1/10/*")
        ok &= expect("allowlisted regression passes", code, 0, out)

        # A per-series threshold override can also absorb it.
        code, out = run(tool, base, slow_path,
                        "--per", "sync/1/1/10/ns_per_raise=2.5",
                        "--per", "sync/1/1/10/raises_per_sec=2.5")
        ok &= expect("--per override passes", code, 0, out)

        # Getting faster is not a regression.
        fast = json.loads(json.dumps(DISPATCH_DOC))
        fast["rows"][0]["ns_per_raise"] = 20.0
        fast["rows"][0]["raises_per_sec"] = 50000000
        code, out = run(tool, base, write(tmp, "fast.json", fast))
        ok &= expect("improvement passes", code, 0, out)

        # Dropping a case from the run must fail: a silently skipped
        # bench is indistinguishable from a hidden regression.
        short = {"bench": "dispatch_matrix", "rows": DISPATCH_DOC["rows"][:1]}
        code, out = run(tool, base, write(tmp, "short.json", short))
        ok &= expect("missing row fails", code, 1, out)

        # A new case in the fresh run is informational, not gating.
        grown = json.loads(json.dumps(DISPATCH_DOC))
        grown["rows"].append({"mode": "sync", "shards": 64, "threads": 1,
                              "handlers": 10, "ns_per_raise": 50.0})
        code, out = run(tool, base, write(tmp, "grown.json", grown))
        ok &= expect("extra row passes", code, 0, out)

        # JSON-lines input (bench_ablation stdout shape), including a
        # machine-independent *_ratio metric gating in the higher-is-
        # worse direction.
        lines = write(tmp, "ablation.txt", ABLATION_LINES)
        code, out = run(tool, lines, lines)
        ok &= expect("jsonl self-diff passes", code, 0, out)
        worse = ABLATION_LINES.replace('"p50_ratio":1.12',
                                       '"p50_ratio":2.4')
        code, out = run(tool, lines, write(tmp, "worse.txt", worse))
        ok &= expect("ratio regression fails", code, 1, out)

        # Install-path counts in the fleet smoke rows gate in the
        # higher-is-worse direction; with --per =1.0 any increase fails,
        # including a count whose baseline is 0.
        fleet = {"bench": "fleet", "rows": [
            {"bench": "fleet", "stack": "reno", "loss": 0, "rebuilds": 480,
             "stub_compiles": 312, "stub_replicas": 0,
             "jit_mapped_bytes": 458752}]}
        fleet_path = write(tmp, "fleet.json", fleet)
        exact = ["--threshold", "1.01",
                 "--per", "fleet/*/stub_replicas=1.0",
                 "--per", "fleet/*/rebuilds=1.0"]
        code, out = run(tool, fleet_path, fleet_path, *exact)
        ok &= expect("fleet counts self-diff passes", code, 0, out)
        cloned = json.loads(json.dumps(fleet))
        cloned["rows"][0]["stub_replicas"] = 2184
        cloned["rows"][0]["rebuilds"] = 481
        code, out = run(tool, fleet_path, write(tmp, "cloned.json", cloned),
                        *exact)
        ok &= expect("fleet count increase fails", code, 1, out)
        if "stub_replicas" not in out or "rebuilds" not in out:
            print(f"FAIL count regression report names the metrics:\n{out}")
            ok = False

        # An empty baseline is a usage error, not a silent pass.
        code, out = run(tool, write(tmp, "empty.txt", "no rows here\n"),
                        base)
        ok &= expect("empty baseline errors", code, 2, out)

    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
