// The fleet workload: src/fleet at the ROADMAP size — 100 host pairs x 20
// connections (2000), reno at 1% loss, an 8-shard dispatcher, one virtual
// second. The connections are simulated objects one thread advances in
// virtual time. Each cycle builds a fresh dispatcher and fleet (set-up),
// then advances the simulator in 10 ms virtual chunks, timing each chunk
// on the host clock.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench/common.h"
#include "src/codegen/exec_memory.h"
#include "src/core/dispatcher.h"
#include "src/fleet/fleet.h"
#include "src/obs/obs.h"

namespace perfbench {
namespace {

constexpr uint64_t kChunkNs = 10'000'000;  // virtual ns per timed chunk
constexpr double kCycleBudgetS = 10;        // --seconds per fleet cycle

}  // namespace

void RunFleet(const Options& options, Result* result) {
  spin::fleet::FleetOptions fo;
  fo.pairs = options.mini ? 4 : 100;
  fo.conns_per_pair = options.mini ? 10 : 20;
  fo.stack = "reno";
  fo.loss = 0.01;
  fo.seed = options.seed;
  fo.duration_ns = options.mini ? 200'000'000 : 1'000'000'000;

  // Cycles are counted from --seconds, not timed, so every run of one
  // length has the same chunk count and so the same tail percentile.
  // Untraced runs report set-up as a median, so they build at least three
  // fleets; a traced run builds one per pass.
  const int min_cycles = options.mini || options.one_setup ? 1 : 3;
  const int cycles =
      options.mini ? 1
                   : std::max(min_cycles,
                              static_cast<int>(options.seconds / kCycleBudgetS));
  std::vector<double> us_per_response;
  std::vector<double> responses_per_s;
  Timing& chunks = result->timings["fleet_chunk_ns"];
  SpanBuffer* spans = options.traced ? &result->spans : nullptr;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    uint64_t request = static_cast<uint64_t>(cycle) + 1;
    size_t mapped_before = spin::codegen::CodeBuffer::TotalMappedBytes();
    std::unique_ptr<spin::Dispatcher> dispatcher;
    std::unique_ptr<spin::fleet::Fleet> fleet;
    uint64_t t0 = NowNs();
    {
      ScopedSpan setup(spans, "setup", 0, request);
      {
        ScopedSpan s(spans, "core.Dispatcher()", setup.id(), request);
        spin::Dispatcher::Config config;
        config.shards = kShards;
        dispatcher = std::make_unique<spin::Dispatcher>(config);
      }
      ScopedSpan s(spans, "fleet.Fleet()", setup.id(), request);
      fleet = std::make_unique<spin::fleet::Fleet>(dispatcher.get(), fo);
    }
    result->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    // Install-side counts right after set-up (the run installs nothing;
    // tracing, switched on below, must not enter them).
    spin::Dispatcher::Stats stats = dispatcher->stats();
    double jit_mib = static_cast<double>(
                         spin::codegen::CodeBuffer::TotalMappedBytes() -
                         mapped_before) /
                     (1024.0 * 1024.0);

    if (options.traced) {
      ResetTraceState();
      StartTracing(*dispatcher);
    }
    uint64_t run_ns = 0;
    {
      ScopedSpan run(spans, "fleet.Run", 0, request);
      for (uint64_t t = kChunkNs; t <= fo.duration_ns; t += kChunkNs) {
        ScopedSpan chunk(spans, "fleet.sim.Run", run.id(), request);
        uint64_t c0 = NowNs();
        fleet->sim().Run(t);
        uint64_t ns = NowNs() - c0;
        chunks.hist.Record(ns);
        run_ns += ns;
      }
    }
    // The simulator already stands at duration_ns: Run() only collects.
    spin::fleet::FleetReport report = fleet->Run();

    result->attempted += report.connections;
    if (report.established != report.connections) {
      result->failed += report.connections - report.established;
      result->failures.push_back("fleet: connections not established");
    }
    if (report.dead != 0) {
      result->failed += report.dead;
      result->failures.push_back("fleet: dead connections");
    }
    if (!report.streams_intact) {
      result->Fail("fleet: a delivered stream was corrupted");
    }
    if (report.responses_delivered == 0) {
      result->Fail("fleet: no responses delivered");
      continue;
    }
    double responses = static_cast<double>(report.responses_delivered);
    us_per_response.push_back(static_cast<double>(run_ns) / 1e3 / responses);
    responses_per_s.push_back(responses * 1e9 / static_cast<double>(run_ns));

    result->stub_compiles = stats.stub_compiles;
    if (cycle == 0) {
      // Counts from the first cycle: exact for a given seed.
      double installs = static_cast<double>(stats.installs);
      result->scalars["delivered_per_vsec"] = report.delivered_per_sec;
      result->scalars["fleet.installs"] = installs;
      result->scalars["fleet.rebuilds"] = static_cast<double>(stats.rebuilds);
      result->scalars["fleet.stub_compiles"] =
          static_cast<double>(stats.stub_compiles);
      result->scalars["fleet.stub_clones"] =
          static_cast<double>(stats.stub_replicas);
      result->layer["core.installs_per_conn"] =
          installs / static_cast<double>(report.connections);
      result->layer["core.rebuilds_per_install"] =
          static_cast<double>(stats.rebuilds) / installs;
      result->layer["codegen.stub_compiles_per_install"] =
          static_cast<double>(stats.stub_compiles) / installs;
      result->layer["codegen.stub_clones_per_install"] =
          static_cast<double>(stats.stub_replicas) / installs;
      result->layer["codegen.jit_mapped_mib"] = jit_mib;
      result->layer["net.frames_per_response"] =
          static_cast<double>(report.frames_offered) / responses;
      result->layer["net.retransmissions_per_response"] =
          static_cast<double>(report.retransmissions) / responses;
      result->layer["net.host_ns_per_frame"] =
          static_cast<double>(run_ns) /
          static_cast<double>(report.frames_offered);
      result->layer["net.delivered_per_vsec"] = report.delivered_per_sec;
    }
    if (options.traced) {
      // The fleet's sampled phase attribution, reported alongside.
      RecordPhaseTotals(spin::obs::SnapshotPhaseStats(), result);
      StopTracing(*dispatcher);
    }
    {
      ScopedSpan s(spans, "fleet.~Fleet()", 0, request);
      fleet.reset();
      dispatcher.reset();
    }
  }
  result->ops_per_s = Median(responses_per_s);
  result->ops_intervals = responses_per_s.size();
  result->scalars["fleet_us_per_response"] = Median(us_per_response);
}

}  // namespace perfbench
