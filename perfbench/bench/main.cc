// perfbench_bin: runs one benchmark workload against the dispatcher and
// prints one JSON record of raw results (setup times, latency histograms,
// counters, per-layer values) as its last stdout line. perfbench/run.py
// builds this binary, runs it, and derives the reported metrics.
//
//   perfbench_bin --workload raise|churn|async|fleet --seed N
//                    --seconds S --trace 0|1 [--spans FILE]
//
// --trace 1 runs the workload twice (half the time each): untraced, then
// with the program's sampled tracing on and the benchmark's spans
// recorded. The ratio of the two throughputs is obs.tracing_overhead.
// Every per-layer metric has one owner workload; a traced run of another
// workload fills it from a short run of its owner in the same process.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "perfbench/bench/common.h"
#include "src/codegen/stub_compiler.h"

namespace perfbench {
namespace {

struct Owned {
  const char* metric;
  const char* owner;
};

// The per-layer metrics a traced run reports, with the workload that owns
// each one. "*" means measured in every traced run.
constexpr Owned kLayerMetrics[] = {
    {"calib.indirect_call_ns", "*"},
    {"core.raise_ns_p50.bypass", "raise"},
    {"core.raise_ns_p50.stub1", "raise"},
    {"core.raise_ns_p50.stub10", "raise"},
    {"core.raise_ns_p50.demux32", "raise"},
    {"core.install_us_p50", "churn"},
    {"core.add_guard_us_p50", "churn"},
    {"core.uninstall_us_p50", "churn"},
    {"core.rebuilds_per_install", "fleet"},
    {"core.installs_per_conn", "fleet"},
    {"codegen.stub_compiles_per_install", "fleet"},
    {"codegen.stub_clones_per_install", "fleet"},
    {"codegen.jit_mapped_mib", "fleet"},
    {"codegen.compile_stub_us.h10", "*"},
    {"codegen.clone_us.h10", "*"},
    {"codegen.exec_map_us", "*"},
    {"codegen.lir_insns.h10", "*"},
    {"codegen.peephole_rewrites.h10", "*"},
    {"rt.pool.tasks_per_async_raise.h1", "async"},
    {"rt.pool.tasks_per_async_raise.h10", "async"},
    {"rt.pool.steals_per_task", "async"},
    {"rt.async_done_us_p50.h1", "async"},
    {"rt.async_done_us_p50.h10", "async"},
    {"rt.epoch.retired_max", "churn"},
    {"rt.epoch.reclaimed_per_install", "churn"},
    {"net.frames_per_response", "fleet"},
    {"net.retransmissions_per_response", "fleet"},
    {"net.host_ns_per_frame", "fleet"},
    {"net.delivered_per_vsec", "fleet"},
    {"obs.phase_ns_per_raise.stub", "raise"},
    {"obs.phase_ns_per_raise.handler_body", "async"},
    {"obs.phase_ns_per_raise.queue_wait", "async"},
    {"obs.tracing_overhead", "*"},
};

void Run(const std::string& workload, const Options& options,
         Result* result) {
  if (workload == "raise") {
    RunRaise(options, result);
  } else if (workload == "churn") {
    RunChurn(options, result);
  } else if (workload == "async") {
    RunAsync(options, result);
  } else {
    RunFleet(options, result);
  }
}

void AddChecks(const Result& from, Result* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (const std::string& f : from.failures) {
    if (into->failures.size() < 20) into->failures.push_back(f);
  }
}

void RunTraced(const Options& options, Result* result) {
  Options half = options;
  half.seconds = options.seconds / 2;
  half.one_setup = true;
  Result untraced;
  half.traced = false;
  Run(options.workload, half, &untraced);
  half.traced = true;
  Run(options.workload, half, result);
  AddChecks(untraced, result);
  result->layer["obs.tracing_overhead"] =
      untraced.ops_per_s > 0 ? result->ops_per_s / untraced.ops_per_s : 0;
  RunCodegenProbes(result);

  for (const char* owner : {"raise", "churn", "async", "fleet"}) {
    if (options.workload == owner) continue;
    Options mini = options;
    mini.workload = owner;
    mini.mini = true;
    mini.traced = true;
    Result other;
    Run(owner, mini, &other);
    AddChecks(other, result);
    for (const Owned& m : kLayerMetrics) {
      if (std::strcmp(m.owner, owner) != 0) continue;
      auto it = other.layer.find(m.metric);
      if (it != other.layer.end()) result->layer[m.metric] = it->second;
    }
  }
  for (const Owned& m : kLayerMetrics) {
    if (result->layer.count(m.metric) == 0) {
      result->Fail(std::string("layer metric not measured: ") + m.metric);
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintRecord(const Options& options, const Result& r, double calib_ns) {
  std::string out = "{";
  out += "\"workload\":" + JsonString(options.workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"traced\":" + std::string(options.traced ? "true" : "false");
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"threads\":" + std::to_string(options.threads);
  out += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  out += ",\"jit_available\":" +
         std::string(spin::codegen::CodegenAvailable() ? "true" : "false");
  out += ",\"calib_indirect_call_ns\":" + Num(calib_ns);
  out += ",\"caller_shards\":[";
  for (size_t i = 0; i < r.caller_shards.size(); ++i) {
    out += (i ? "," : "") + std::to_string(r.caller_shards[i]);
  }
  out += "]";
  out += ",\"setup_s\":[";
  for (size_t i = 0; i < r.setup_s.size(); ++i) {
    out += (i ? "," : "") + Num(r.setup_s[i]);
  }
  out += "],\"peak_rss_mib\":" + Num(PeakRssMib());
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    out += (i ? "," : "") + JsonString(r.failures[i]);
  }
  out += "],\"stub_compiles\":" + std::to_string(r.stub_compiles);
  out += ",\"ops_per_s\":" + Num(r.ops_per_s);
  out += ",\"ops_intervals\":" + std::to_string(r.ops_intervals);
  out += ",\"timings\":{";
  bool first = true;
  for (const auto& [name, t] : r.timings) {
    out += (first ? "" : ",") + JsonString(name) + ":{\"per\":" +
           std::to_string(t.per) + ",\"hist\":" + t.hist.Json() + "}";
    first = false;
  }
  out += "},\"scalars\":{";
  first = true;
  for (const auto& [name, v] : r.scalars) {
    out += (first ? "" : ",") + JsonString(name) + ":" + Num(v);
    first = false;
  }
  out += "},\"layer\":{";
  first = true;
  for (const auto& [name, v] : r.layer) {
    out += (first ? "" : ",") + JsonString(name) + ":" + Num(v);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool WriteSpans(const char* path, const SpanBuffer& spans) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  for (const Span& s : spans.spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%llu,\"end\":%llu,\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"ops\":%u}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.ops);
  }
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin --workload raise|churn|async|fleet "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  const char* spans_path = nullptr;
  if (argc % 2 == 0) return Usage();  // every flag takes a value
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.traced = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (options.workload != "raise" && options.workload != "churn" &&
      options.workload != "async" && options.workload != "fleet") {
    return Usage();
  }
  if (options.seconds <= 0) return Usage();
  unsigned hw = std::thread::hardware_concurrency();
  options.threads = hw < 2 ? 2 : hw;

  double calib_ns = CalibIndirectCallNs();
  Result result;
  if (options.traced) {
    result.layer["calib.indirect_call_ns"] = calib_ns;
    RunTraced(options, &result);
  } else {
    Run(options.workload, options, &result);
  }
  // The JIT must be on. Events whose handlers are all async get no stub
  // (their raise only schedules pool tasks), so async is exempt from the
  // compiled-stub count; the report says so.
  if (!spin::codegen::CodegenAvailable()) {
    result.Fail("code generation unavailable (SPIN_DISABLE_JIT set?)");
  } else if (options.workload != "async" && result.stub_compiles == 0) {
    result.Fail("stubs were not compiled: the run dispatched interpreted");
  }
  if (spans_path != nullptr && !WriteSpans(spans_path, result.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path);
    return 1;
  }
  PrintRecord(options, result, calib_ns);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_bin: %s\n", e.what());
    return 1;
  }
}
