#!/usr/bin/env python3
"""The dispatcher benchmark.

    python3 perfbench/run.py --workload raise|churn|async|fleet \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench_bin
(Release) from perfbench/ and src/ into .bench_build/perfbench. The run
prints a header (machine calibration, nproc, build type, commit, seed,
the shard of each caller thread),
every metric by name with its unit and sample count, the output checks,
and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, and the benchmark's spans are written to
.bench_build/spans/ and summarised by self time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_bin")
WORKLOADS = ("raise", "churn", "async", "fleet")
BINARY_TIMEOUT_S = 170

# Per workload: the timing behind op_p50_us / op_tail_us, and the names the
# workload's own report gives its end-to-end numbers.
PRIMARY = {
    "raise": "raise_ns",
    "churn": "install_ns",
    "async": "async_done_ns",
    "fleet": "fleet_chunk_ns",
}
NAMED_TIMINGS = {
    "raise": [("raise_ns", "raise_ns", "ns")],
    "churn": [("raise_ns", "raise_ns", "ns"),
              ("install_ns", "install_us", "us")],
    "async": [("async_done_ns", "async_done_us", "us")],
    "fleet": [("fleet_chunk_ns", "fleet_chunk_us", "us")],
}
NAMED_SCALARS = {
    "raise": [("raise_mops", "Mraises/s")],
    "churn": [("raise_mops", "Mraises/s"), ("install_cycles", "count")],
    "async": [("async_raises_per_s", "1/s")],
    "fleet": [("fleet_us_per_response", "us"),
              ("delivered_per_vsec", "responses/vsec"),
              ("fleet.installs", "count"), ("fleet.rebuilds", "count"),
              ("fleet.stub_compiles", "count"), ("fleet.stub_clones", "count")],
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the binary; a no-op build when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dispatcher sources under %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring every time is cheap once cached, and keeps the build tree
    # in step with perfbench/CMakeLists.txt.
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_bin",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def run_binary(args, spans_path):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("binary timed out after %d s" % BINARY_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        fail("binary exited with %d" % out.returncode)
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("binary printed nothing")
    return json.loads(lines[-1])


def timing_stats(timing, scale_ns):
    """(p50, tail_pct, tail, n) of a binary timing, in units of scale_ns."""
    hist, per = timing["hist"], timing["per"]
    if harness.hist_count(hist) == 0:
        fail("a timing recorded no samples")
    p50 = harness.percentile(hist, 50.0) / per / scale_ns
    pct, tail, n = harness.tail_percentile(hist)
    return p50, pct, tail / per / scale_ns, n


def end_to_end(record):
    setup = record["setup_s"]
    if not setup:
        fail("binary reported no set-up time")
    p50, pct, tail, _ = timing_stats(record["timings"][PRIMARY[record["workload"]]],
                                     1e3)
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mib": record["peak_rss_mib"],
        "ops_per_s": record["ops_per_s"],
        "op_p50_us": p50,
        "op_tail_us": tail,
    }


def print_report(args, record, values, spec_units):
    w = record["workload"]
    print("# perfbench workload=%s seed=%d trace=%d seconds=%s"
          % (w, args.seed, args.trace, args.seconds))
    print("# header: calib.indirect_call_ns=%.4f nproc=%d threads=%d "
          "build=%s jit=%s commit=%s"
          % (record["calib_indirect_call_ns"], record["nproc"],
             record["threads"], record["build_type"],
             "on" if record["jit_available"] else "off", commit()))
    if record["caller_shards"]:
        print("# callers' shards (of 8, in spawn order%s): %s"
              % (", writer last" if w == "churn" else "",
                 " ".join(str(s) for s in record["caller_shards"])))
    ratio = harness.fail_ratio(record["attempted"], record["failed"])
    print("%-34s %-14.6g %-10s (n=%d attempted, %d failed)"
          % ("fail_ratio", ratio, "ratio", record["attempted"],
             record["failed"]))
    for failure in record["failures"]:
        print("#   failure: " + failure)
    if w == "async":
        print("#   note: async-only events get no compiled stub; the JIT "
              "is on (stub_compiles=%d)" % record["stub_compiles"])
    print("%-34s %-14.6g %-10s (n=%d set-ups, median)"
          % ("setup_s", statistics.median(record["setup_s"]), "s",
             len(record["setup_s"])))
    print("%-34s %-14.6g %-10s (n=1)"
          % ("peak_rss_mib", record["peak_rss_mib"], "MiB"))
    for name, unit in NAMED_SCALARS[w]:
        if name in record["scalars"]:
            n = record["ops_intervals"] if unit.endswith("/s") else 1
            print("%-34s %-14.6g %-10s (n=%d)"
                  % (name, record["scalars"][name], unit, n))
    for key, name, unit in NAMED_TIMINGS[w]:
        if key not in record["timings"]:
            continue
        p50, pct, tail, n = timing_stats(record["timings"][key],
                                         1.0 if unit == "ns" else 1e3)
        print("%-34s %-14.6g %-10s (n=%d)" % (name + "_p50", p50, unit, n))
        print("%-34s %-14.6g %-10s (n=%d, %d beyond)"
              % ("%s_p%g" % (name, pct), tail, unit, n,
                 harness.samples_beyond(n, pct)))
    if args.trace:
        for name in sorted(record["scalars"]):
            if name.startswith("phase_self_ns."):
                print("%-34s %-14.6g %-10s" % (name, record["scalars"][name],
                                               "ns"))
    print("# contract metrics:")
    for name, value in values.items():
        print("%-34s %-14.6g %s" % (name, value, spec_units[name]))


def print_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            spans.append(json.loads(line))
    table = harness.self_time_by_name(spans)
    print("# spans (%d, written to %s): name, count, total ms, self ms, "
          "self ns/op" % (len(spans), os.path.relpath(path, ROOT)))
    for name, (count, total, own, ops) in sorted(
            table.items(), key=lambda kv: -kv[1][2]):
        print("#   %-30s %8d %12.3f %12.3f %12.1f"
              % (name, count, total / 1e6, own / 1e6, own / max(ops, 1)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}

    build()
    spans_path = None
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, "%s-seed%d.jsonl"
                                  % (args.workload, args.seed))
    record = run_binary(args, spans_path)

    if args.trace:
        values = {m["name"]: record["layer"].get(m["name"]) for m in spec}
    else:
        values = end_to_end(record)
    print_report(args, record, {k: v for k, v in values.items()
                                if v is not None}, units)
    if spans_path:
        print_spans(spans_path)

    metrics = {name: {"value": value, "unit": units.get(name)}
               for name, value in values.items() if value is not None}
    problems = harness.check_metrics(metrics, spec)
    if problems:
        fail("; ".join(problems))
    failed = record["failed"]
    result = {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
