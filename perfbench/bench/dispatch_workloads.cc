// The raise, churn and async workloads: closed-loop callers on one process,
// each pinned to a raise source placed on a shard of its own (PlacedSource)
// of an 8-shard dispatcher (the fleet's shard count).
//
// raise  nproc raisers over a seeded mix of four events: an intrinsic-only
//        event (the bypass), a 1-handler event, a 10-handler kSum event
//        and a 32-way micro-guard port demux. Nothing is installed after
//        setup.
// churn  the same events; one writer installs a guarded micro handler on a
//        seeded event and uninstalls it again, nproc-1 raisers keep
//        raising and check every result against the resident sum (+1
//        while the writer's handler is live).
// async  two raisers on a dispatcher with its own 2-worker pool; each
//        raises an event with 1 and one with 10 async handlers, in seeded
//        order, waiting after each raise until all its handlers have run.
#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/bench/common.h"
#include "src/core/dispatcher.h"
#include "src/core/shard.h"
#include "src/micro/program.h"
#include "src/obs/obs.h"

namespace perfbench {
namespace {

using spin::Dispatcher;
using spin::Event;

constexpr uint32_t kBatch = 16;          // raises per latency sample
constexpr uint32_t kSpanEvery = 128;     // traced: span 1 in N class batches
constexpr double kIntervalS = 0.1;       // throughput sampling interval
constexpr double kEpochS = 1.0;          // threads are respawned per epoch
constexpr int kSyncSetups = 31;
constexpr int kAsyncSetups = 51;
constexpr int kDemuxWays = 32;
constexpr uint16_t kBasePort = 1000;

struct Pkt {
  uint8_t data[16];
};

int64_t BypassIntrinsic(int64_t x) { return x * 3 + 1; }

// Raise source of caller `index`: the lowest strand id that ShardFor maps
// to shard index % kShards. Callers get shards of their own while there are
// no more callers than shards, whatever the hash does with dense ids.
uint64_t PlacedSource(unsigned index) {
  uint32_t want = index % kShards;
  for (uint64_t id = 0;; ++id) {
    uint64_t source = spin::MakeRaiseSource(spin::SourceKind::kStrand, id);
    if (spin::ShardFor(source, kShards) == want) return source;
  }
}

// The shard of each of the first `callers` placed sources, for the header.
std::vector<uint32_t> PlacedShards(unsigned callers) {
  std::vector<uint32_t> shards;
  for (unsigned i = 0; i < callers; ++i) {
    shards.push_back(spin::ShardFor(PlacedSource(i), kShards));
  }
  return shards;
}

enum Class : uint8_t { kBypass, kStub1, kStub10, kDemux, kNumClasses };
const char* const kClassName[kNumClasses] = {"bypass", "stub1", "stub10",
                                             "demux32"};
const char* const kRaiseSpan[kNumClasses] = {
    "core.Raise.bypass", "core.Raise.stub1", "core.Raise.stub10",
    "core.Raise.demux32"};

// The four sync events of the raise and churn workloads.
struct SyncRig {
  spin::Module module{"Perfbench"};
  std::unique_ptr<Dispatcher> dispatcher;
  std::unique_ptr<Event<int64_t(int64_t)>> bypass, stub1, stub10;
  std::unique_ptr<Event<int64_t(Pkt*)>> demux;
  int64_t sum1 = 0;
  int64_t sum10 = 0;
  int64_t demux_value[kDemuxWays] = {};

  ~SyncRig() {
    // Events unregister from the dispatcher, so they go first.
    bypass.reset();
    stub1.reset();
    stub10.reset();
    demux.reset();
  }
};

uint64_t HandlerValue(Rng& rng) { return (rng.Below(1u << 20) + 1) << 8; }

// Builds the rig; every call into the dispatcher is a span under `root`.
std::unique_ptr<SyncRig> BuildSyncRig(uint64_t seed, SpanBuffer* spans,
                                      uint64_t request) {
  ScopedSpan root(spans, "setup", 0, request);
  auto rig = std::make_unique<SyncRig>();
  Rng rng(seed ^ 0x5e7u);
  {
    ScopedSpan s(spans, "core.Dispatcher()", root.id(), request);
    Dispatcher::Config config;
    config.shards = kShards;
    rig->dispatcher = std::make_unique<Dispatcher>(config);
  }
  Dispatcher& d = *rig->dispatcher;
  const spin::Module* m = &rig->module;
  rig->bypass = std::make_unique<Event<int64_t(int64_t)>>(
      "Perfbench.Bypass", m, &BypassIntrinsic, &d);
  rig->stub1 =
      std::make_unique<Event<int64_t(int64_t)>>("Perfbench.Stub1", m, nullptr,
                                                &d);
  rig->stub10 = std::make_unique<Event<int64_t(int64_t)>>("Perfbench.Stub10",
                                                          m, nullptr, &d);
  rig->demux = std::make_unique<Event<int64_t(Pkt*)>>("Perfbench.Demux32", m,
                                                      nullptr, &d);
  auto install = [&](spin::EventBase& event, uint64_t value) {
    ScopedSpan s(spans, "core.InstallMicroHandler", root.id(), request);
    return d.InstallMicroHandler(
        event, spin::micro::ReturnConst(1, value, /*functional=*/false),
        {.module = m});
  };
  rig->sum1 = static_cast<int64_t>(HandlerValue(rng));
  install(*rig->stub1, static_cast<uint64_t>(rig->sum1));
  for (int i = 0; i < 10; ++i) {
    uint64_t v = HandlerValue(rng);
    rig->sum10 += static_cast<int64_t>(v);
    spin::BindingHandle b = install(*rig->stub10, v);
    ScopedSpan s(spans, "core.AddMicroGuard", root.id(), request);
    d.AddMicroGuard(b, spin::micro::GuardGlobalEq(&g_guard_word, 1));
  }
  for (int i = 0; i < kDemuxWays; ++i) {
    uint64_t v = HandlerValue(rng);
    rig->demux_value[i] = static_cast<int64_t>(v);
    spin::BindingHandle b = install(*rig->demux, v);
    ScopedSpan s(spans, "core.AddMicroGuard", root.id(), request);
    d.AddMicroGuard(b, spin::micro::GuardArgFieldEq(
                           1, 0, 4, 2, ~0ull,
                           static_cast<uint64_t>(kBasePort + i)));
  }
  for (spin::EventBase* e : {static_cast<spin::EventBase*>(rig->bypass.get()),
                             static_cast<spin::EventBase*>(rig->stub1.get()),
                             static_cast<spin::EventBase*>(rig->stub10.get()),
                             static_cast<spin::EventBase*>(rig->demux.get())}) {
    ScopedSpan s(spans, "core.SetResultPolicy", root.id(), request);
    d.SetResultPolicy(*e, spin::ResultPolicy::kSum, m);
  }
  return rig;
}

// Seeded per-thread input. Seven batches in eight are mixed: four raises
// of each class in a seeded order, so every latency sample covers the same
// mix. Every eighth batch is one class (rotating) and feeds that class's
// latency.
constexpr uint32_t kClassBatchEvery = 8;
constexpr uint8_t kMixed = kNumClasses;

struct RaiseInput {
  std::vector<uint8_t> kind;  // per batch: kMixed or the single class
  std::vector<uint8_t> cls;   // per raise
  std::vector<int64_t> arg;   // per raise: the value, or the demux way
};

RaiseInput MakeInput(uint64_t seed, unsigned thread, size_t batches) {
  Rng rng(seed * 1000003u + thread + 1);
  RaiseInput in;
  in.kind.resize(batches);
  in.cls.resize(batches * kBatch);
  in.arg.resize(batches * kBatch);
  for (size_t b = 0; b < batches; ++b) {
    uint8_t* cls = &in.cls[b * kBatch];
    if (b % kClassBatchEvery == kClassBatchEvery - 1) {
      in.kind[b] = static_cast<uint8_t>((b / kClassBatchEvery) % kNumClasses);
      std::fill(cls, cls + kBatch, in.kind[b]);
    } else {
      in.kind[b] = kMixed;
      for (uint32_t j = 0; j < kBatch; ++j) cls[j] = j % kNumClasses;
      for (uint32_t j = kBatch - 1; j > 0; --j) {
        std::swap(cls[j], cls[rng.Below(j + 1)]);
      }
    }
    for (uint32_t j = 0; j < kBatch; ++j) {
      in.arg[b * kBatch + j] =
          cls[j] == kDemux ? static_cast<int64_t>(rng.Below(kDemuxWays))
                           : static_cast<int64_t>(rng.Below(1u << 30));
    }
  }
  return in;
}

struct alignas(64) Progress {
  std::atomic<uint64_t> ops{0};
};

// Per-raiser state, merged into the Result after the threads join.
struct Raiser {
  LatHist all;                    // ns per mixed batch of kBatch raises
  LatHist by_class[kNumClasses];  // ns per single-class batch
  uint64_t attempted = 0;
  uint64_t bad = 0;
  std::string first_bad;
  SpanBuffer spans;
};

// One batch of raises. `slack` is how far above the resident sum a result
// may be: 0 for raise, 1 for churn (the writer's handler). Returns the
// number of wrong results; `*bad_class` is the class of the last one.
uint64_t RaiseBatch(SyncRig& rig, const uint8_t* cls, const int64_t* args,
                    int64_t slack, Pkt* pkt, uint8_t* bad_class) {
  uint64_t bad = 0;
  for (uint32_t j = 0; j < kBatch; ++j) {
    int64_t expect = 0;
    int64_t got = 0;
    switch (cls[j]) {
      case kBypass:
        expect = args[j] * 3 + 1;
        got = rig.bypass->Raise(args[j]);
        break;
      case kStub1:
        expect = rig.sum1;
        got = rig.stub1->Raise(args[j]);
        break;
      case kStub10:
        expect = rig.sum10;
        got = rig.stub10->Raise(args[j]);
        break;
      default: {
        uint16_t port = static_cast<uint16_t>(kBasePort + args[j]);
        pkt->data[4] = static_cast<uint8_t>(port & 0xff);
        pkt->data[5] = static_cast<uint8_t>(port >> 8);
        expect = rig.demux_value[args[j]];
        got = rig.demux->Raise(pkt);
        break;
      }
    }
    if (got < expect || got > expect + slack) {
      ++bad;
      *bad_class = cls[j];
    }
  }
  return bad;
}

void RaiseLoopBody(SyncRig& rig, const RaiseInput& in, unsigned thread,
                   int64_t slack, bool traced, const std::atomic<bool>& stop,
                   const std::atomic<bool>& measuring, Progress* progress,
                   Raiser* out) {
  spin::RaiseSourceScope source(PlacedSource(thread));
  Pkt pkt{};
  size_t batches = in.kind.size();
  uint64_t done = 0;
  for (size_t b = 0; !stop.load(std::memory_order_relaxed); ++b) {
    size_t i = b % batches;
    uint8_t kind = in.kind[i];
    const uint8_t* cls = &in.cls[i * kBatch];
    const int64_t* args = &in.arg[i * kBatch];
    uint8_t bad_class = 0;
    uint64_t bad = 0;
    uint64_t elapsed = 0;
    {
      bool spanned = traced && kind != kMixed &&
                     (b / kClassBatchEvery / kNumClasses) % kSpanEvery == 0;
      ScopedSpan span(spanned ? &out->spans : nullptr,
                      spanned ? kRaiseSpan[kind] : nullptr, 0, b + 1, kBatch);
      uint64_t t0 = NowNs();
      bad = RaiseBatch(rig, cls, args, slack, &pkt, &bad_class);
      elapsed = NowNs() - t0;
    }
    if (bad != 0 && out->bad == 0) {
      out->first_bad = std::string("wrong ") + kClassName[bad_class] +
                       " raise result (torn or misdispatched table)";
    }
    out->bad += bad;
    out->attempted += kBatch;
    if (measuring.load(std::memory_order_relaxed)) {
      (kind == kMixed ? out->all : out->by_class[kind]).Record(elapsed);
    }
    done += kBatch;
    progress->ops.store(done, std::memory_order_relaxed);
  }
}

// A raise that throws (no handler fired, say) is a failed check, not a
// crash of the run.
void RaiseLoop(SyncRig& rig, const RaiseInput& in, unsigned thread,
               int64_t slack, bool traced, const std::atomic<bool>& stop,
               const std::atomic<bool>& measuring, Progress* progress,
               Raiser* out) {
  try {
    RaiseLoopBody(rig, in, thread, slack, traced, stop, measuring, progress,
                  out);
  } catch (const std::exception& e) {
    ++out->bad;
    if (out->first_bad.empty()) {
      out->first_bad = std::string("raise threw: ") + e.what();
    }
  }
}

// The timed window runs in epochs of kEpochS. Each epoch spawns fresh
// threads through `spawn(stop, measuring, progress)`, lets them warm up for
// one interval, samples their summed progress every kIntervalS, then stops
// and joins them and calls `after()`. Fresh threads every epoch let the
// scheduler place them anew, so one unlucky placement cannot decide a run.
// Returns the median interval rate; `*intervals` is the sample count.
template <typename Spawn, typename After>
double RunEpochs(double seconds, size_t workers, size_t* intervals,
                 Spawn spawn, After after) {
  std::vector<double> rates;
  auto interval = std::chrono::duration<double>(kIntervalS);
  for (double left = seconds; left > 1e-9; left -= kEpochS) {
    uint64_t end_ns =
        NowNs() + static_cast<uint64_t>(std::min(kEpochS, left) * 1e9);
    std::vector<Progress> progress(workers);
    std::atomic<bool> stop{false};
    std::atomic<bool> measuring{false};
    std::vector<std::thread> threads = spawn(stop, measuring, progress);
    auto total = [&] {
      uint64_t n = 0;
      for (const Progress& p : progress) {
        n += p.ops.load(std::memory_order_relaxed);
      }
      return n;
    };
    std::this_thread::sleep_for(interval);  // warmup, not measured
    measuring.store(true);
    uint64_t last = total();
    uint64_t last_ns = NowNs();
    while (last_ns + static_cast<uint64_t>(kIntervalS * 1e9) <= end_ns) {
      std::this_thread::sleep_for(interval);
      uint64_t now = total();
      uint64_t now_ns = NowNs();
      rates.push_back(static_cast<double>(now - last) * 1e9 /
                      static_cast<double>(now_ns - last_ns));
      last = now;
      last_ns = now_ns;
    }
    measuring.store(false);
    stop.store(true);
    for (std::thread& t : threads) t.join();
    after();
  }
  *intervals = rates.size();
  return Median(rates);
}

// Mean self-ns per recorded segment of `phase`, over every event.
double PhaseMeanNs(const std::vector<spin::obs::PhaseStats>& stats,
                   spin::obs::Phase phase) {
  uint64_t sum = 0;
  uint64_t count = 0;
  for (const spin::obs::PhaseStats& s : stats) {
    sum += s.phases[static_cast<size_t>(phase)].sum;
    count += s.phases[static_cast<size_t>(phase)].count;
  }
  return count == 0 ? 0 : static_cast<double>(sum) / static_cast<double>(count);
}

// Set-ups timed per run (the median is reported); a fixed count keeps the
// run's peak RSS comparable. Async set-up takes microseconds, so it repeats
// more often.
int Setups(const Options& options, int full) {
  return options.mini || options.one_setup ? 1 : full;
}

// Setups (median reported) and the rig the run uses: the last one built.
std::unique_ptr<SyncRig> SetUpSync(const Options& options, Result* result) {
  std::unique_ptr<SyncRig> rig;
  for (int i = 0; i < Setups(options, kSyncSetups); ++i) {
    rig.reset();
    uint64_t t0 = NowNs();
    rig = BuildSyncRig(options.seed, options.traced ? &result->spans : nullptr,
                       static_cast<uint64_t>(i) + 1);
    result->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return rig;
}

void MergeRaisers(std::vector<Raiser>& raisers, Result* result) {
  Timing& all = result->timings["raise_ns"];
  all.per = kBatch;
  for (Raiser& r : raisers) {
    all.hist.Merge(r.all);
    for (int c = 0; c < kNumClasses; ++c) {
      Timing& t = result->timings[std::string("raise_ns.") + kClassName[c]];
      t.per = kBatch;
      t.hist.Merge(r.by_class[c]);
    }
    result->attempted += r.attempted;
    if (r.bad != 0) {
      result->failed += r.bad;
      result->failures.push_back(r.first_bad);
    }
    result->spans.Append(r.spans);
  }
}

double Seconds(const Options& options) {
  return options.mini ? 0.5 : options.seconds;
}

}  // namespace

void RunRaise(const Options& options, Result* result) {
  std::unique_ptr<SyncRig> rig = SetUpSync(options, result);
  Dispatcher& d = *rig->dispatcher;
  Dispatcher::Stats setup = d.stats();
  result->stub_compiles = setup.stub_compiles;
  if (options.traced) {
    ResetTraceState();
    StartTracing(d);
  }

  unsigned threads = options.threads;
  std::vector<RaiseInput> inputs;
  for (unsigned t = 0; t < threads; ++t) {
    inputs.push_back(MakeInput(options.seed, t, 4096));
  }
  std::vector<Raiser> raisers(threads);
  result->caller_shards = PlacedShards(threads);
  result->ops_per_s = RunEpochs(
      Seconds(options), threads, &result->ops_intervals,
      [&](std::atomic<bool>& stop, std::atomic<bool>& measuring,
          std::vector<Progress>& progress) {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t) {
          pool.emplace_back([&, t] {
            RaiseLoop(*rig, inputs[t], t, /*slack=*/0, options.traced, stop,
                      measuring, &progress[t], &raisers[t]);
          });
        }
        return pool;
      },
      [] {});
  MergeRaisers(raisers, result);
  if (d.stats().installs != setup.installs) {
    result->Fail("raise: the dispatcher installed during the run");
  }
  result->scalars["raise_mops"] = result->ops_per_s / 1e6;

  if (options.traced) {
    std::vector<spin::obs::PhaseStats> phases = spin::obs::SnapshotPhaseStats();
    RecordPhaseTotals(phases, result);
    StopTracing(d);
    result->layer["obs.phase_ns_per_raise.stub"] =
        PhaseMeanNs(phases, spin::obs::Phase::kStub);
    for (int c = 0; c < kNumClasses; ++c) {
      const Timing& t = result->timings[std::string("raise_ns.") + kClassName[c]];
      result->layer[std::string("core.raise_ns_p50.") + kClassName[c]] =
          static_cast<double>(t.hist.Quantile(0.5)) / kBatch;
    }
  }
}

void RunChurn(const Options& options, Result* result) {
  std::unique_ptr<SyncRig> rig = SetUpSync(options, result);
  Dispatcher& d = *rig->dispatcher;
  Dispatcher::Stats before = d.stats();
  result->stub_compiles = before.stub_compiles;
  uint64_t reclaimed_before = 0;
  for (uint32_t s = 0; s < d.shard_count(); ++s) {
    reclaimed_before += d.shard_epoch(s).reclaimed_total();
  }
  if (options.traced) {
    ResetTraceState();
    StartTracing(d);
  }

  unsigned readers = options.threads - 1;
  std::vector<RaiseInput> inputs;
  for (unsigned t = 0; t < readers; ++t) {
    inputs.push_back(MakeInput(options.seed, t, 4096));
  }
  std::vector<Raiser> raisers(readers);

  // The writer: install + guard, then uninstall, on a seeded event. Each
  // block of kNumClasses cycles visits every event once, in a seeded
  // order, so every seed installs on each event equally often.
  LatHist install_ns, guard_ns, live_ns, uninstall_ns;
  uint64_t cycles = 0;
  size_t retired_max = 0;
  std::string writer_error;
  SpanBuffer writer_spans;
  Rng rng(options.seed ^ 0xc4u);
  spin::EventBase* events[kNumClasses] = {rig->bypass.get(), rig->stub1.get(),
                                         rig->stub10.get(), rig->demux.get()};
  uint8_t order[kNumClasses] = {kBypass, kStub1, kStub10, kDemux};
  auto write = [&](std::atomic<bool>& stop, std::atomic<bool>& measuring) {
    spin::RaiseSourceScope source(PlacedSource(readers));
    SpanBuffer* spans = options.traced ? &writer_spans : nullptr;
    try {
      while (!stop.load(std::memory_order_relaxed) && writer_error.empty()) {
        if (cycles % kNumClasses == 0) {
          for (int i = kNumClasses - 1; i > 0; --i) {
            std::swap(order[i], order[rng.Below(static_cast<uint64_t>(i) + 1)]);
          }
        }
        spin::EventBase& event = *events[order[cycles % kNumClasses]];
        ++cycles;
        ScopedSpan cycle(spans, "churn.cycle", 0, cycles);
        uint64_t t0 = NowNs();
        spin::BindingHandle b;
        {
          ScopedSpan s(spans, "core.InstallMicroHandler", cycle.id(), cycles);
          b = d.InstallMicroHandler(
              event, spin::micro::ReturnConst(1, 1, /*functional=*/false),
              {.module = &rig->module});
        }
        uint64_t t1 = NowNs();
        {
          ScopedSpan s(spans, "core.AddMicroGuard", cycle.id(), cycles);
          d.AddMicroGuard(b, spin::micro::GuardGlobalEq(&g_guard_word, 1));
        }
        uint64_t t2 = NowNs();
        {
          ScopedSpan s(spans, "core.Uninstall", cycle.id(), cycles);
          d.Uninstall(b, &rig->module);
        }
        uint64_t t3 = NowNs();
        if (measuring.load(std::memory_order_relaxed)) {
          install_ns.Record(t1 - t0);
          guard_ns.Record(t2 - t1);
          live_ns.Record(t2 - t0);
          uninstall_ns.Record(t3 - t2);
        }
        size_t retired = 0;
        for (uint32_t s = 0; s < d.shard_count(); ++s) {
          retired += d.shard_epoch(s).retired_count();
        }
        retired_max = std::max(retired_max, retired);
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
  };
  result->caller_shards = PlacedShards(readers + 1);  // the writer is last
  // Throughput is the readers' raises; the writer's cycles are reported
  // alongside.
  result->ops_per_s = RunEpochs(
      Seconds(options), readers, &result->ops_intervals,
      [&](std::atomic<bool>& stop, std::atomic<bool>& measuring,
          std::vector<Progress>& progress) {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < readers; ++t) {
          pool.emplace_back([&, t] {
            RaiseLoop(*rig, inputs[t], t, /*slack=*/1, options.traced, stop,
                      measuring, &progress[t], &raisers[t]);
          });
        }
        pool.emplace_back([&] { write(stop, measuring); });
        return pool;
      },
      [] {});
  MergeRaisers(raisers, result);
  result->spans.Append(writer_spans);
  result->attempted += cycles;
  if (!writer_error.empty()) result->Fail("churn writer: " + writer_error);
  result->timings["install_ns"].hist = live_ns;
  result->scalars["raise_mops"] = result->ops_per_s / 1e6;
  result->scalars["install_cycles"] = static_cast<double>(cycles);

  if (options.traced) {
    RecordPhaseTotals(spin::obs::SnapshotPhaseStats(), result);
    StopTracing(d);
    Dispatcher::Stats after = d.stats();
    uint64_t reclaimed = 0;
    for (uint32_t s = 0; s < d.shard_count(); ++s) {
      reclaimed += d.shard_epoch(s).reclaimed_total();
    }
    uint64_t installs = after.installs - before.installs;
    result->layer["core.install_us_p50"] =
        static_cast<double>(install_ns.Quantile(0.5)) / 1e3;
    result->layer["core.add_guard_us_p50"] =
        static_cast<double>(guard_ns.Quantile(0.5)) / 1e3;
    result->layer["core.uninstall_us_p50"] =
        static_cast<double>(uninstall_ns.Quantile(0.5)) / 1e3;
    result->layer["rt.epoch.retired_max"] = static_cast<double>(retired_max);
    result->layer["rt.epoch.reclaimed_per_install"] =
        installs == 0 ? 0
                      : static_cast<double>(reclaimed - reclaimed_before) /
                            static_cast<double>(installs);
  }
}

// --- async -----------------------------------------------------------------

namespace {

constexpr int kAsyncRaisers = 2;
constexpr int kAsyncWorkers = 2;
constexpr int kWideHandlers = 10;
constexpr uint64_t kRaiserShift = 40;  // arg: raiser | wide | seq
constexpr uint64_t kWideBit = 1ull << 39;
constexpr uint64_t kSeqMask = kWideBit - 1;
constexpr uint64_t kSpinTimeoutNs = 5'000'000'000;

// One completion slot per raiser: the handlers of its current raise set
// their bit; the one that completes the mask stamps the finish time. The
// complete mask comes from the handler's own argument, never from the
// slot, so a handler of an earlier raise cannot read the next raise's.
uint64_t FullMask(bool wide) { return wide ? (1ull << kWideHandlers) - 1 : 1; }

struct alignas(64) AsyncSlot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> mask{0};
  std::atomic<uint64_t> done_ns{0};
  std::atomic<uint64_t> errors{0};  // duplicate or stale handler runs
};

AsyncSlot g_slots[kAsyncRaisers];

template <int K>
void AsyncHandler(int64_t arg) {
  uint64_t a = static_cast<uint64_t>(arg);
  AsyncSlot& slot = g_slots[a >> kRaiserShift];
  if ((a & kSeqMask) != slot.seq.load(std::memory_order_acquire)) {
    slot.errors.fetch_add(1);
    return;
  }
  uint64_t bit = 1ull << K;
  uint64_t prev = slot.mask.fetch_or(bit, std::memory_order_acq_rel);
  if ((prev & bit) != 0) {
    slot.errors.fetch_add(1);
    return;
  }
  if ((prev | bit) == FullMask((a & kWideBit) != 0)) {
    slot.done_ns.store(NowNs(), std::memory_order_release);
  }
}

template <int... K>
void InstallAsync(Dispatcher& d, Event<void(int64_t)>& event,
                  const spin::Module* m, std::integer_sequence<int, K...>) {
  (d.InstallHandler(event, &AsyncHandler<K>, {.async = true, .module = m}),
   ...);
}

struct AsyncRig {
  spin::Module module{"PerfbenchAsync"};
  std::unique_ptr<spin::ThreadPool> pool;
  std::unique_ptr<Dispatcher> dispatcher;
  std::unique_ptr<Event<void(int64_t)>> narrow, wide;  // 1 and 10 handlers

  ~AsyncRig() {
    if (pool != nullptr) pool->Drain();
    narrow.reset();
    wide.reset();
    dispatcher.reset();
  }
};

std::unique_ptr<AsyncRig> BuildAsyncRig(SpanBuffer* spans, uint64_t request) {
  ScopedSpan root(spans, "setup", 0, request);
  auto rig = std::make_unique<AsyncRig>();
  rig->pool = std::make_unique<spin::ThreadPool>(kAsyncWorkers);
  {
    ScopedSpan s(spans, "core.Dispatcher()", root.id(), request);
    Dispatcher::Config config;
    config.shards = kShards;
    config.pool = rig->pool.get();
    rig->dispatcher = std::make_unique<Dispatcher>(config);
  }
  Dispatcher& d = *rig->dispatcher;
  rig->narrow = std::make_unique<Event<void(int64_t)>>(
      "Perfbench.Async1", &rig->module, nullptr, &d);
  rig->wide = std::make_unique<Event<void(int64_t)>>(
      "Perfbench.Async10", &rig->module, nullptr, &d);
  {
    ScopedSpan s(spans, "core.InstallHandler.async", root.id(), request);
    InstallAsync(d, *rig->narrow, &rig->module,
                 std::make_integer_sequence<int, 1>{});
    InstallAsync(d, *rig->wide, &rig->module,
                 std::make_integer_sequence<int, kWideHandlers>{});
  }
  return rig;
}

// One closed-loop async raise: raise, wait for the last handler, check.
// Returns the raise-to-done latency, or 0 on a failed check.
uint64_t AsyncRaise(AsyncRig& rig, int raiser, uint64_t seq, bool wide,
                    std::string* error) {
  AsyncSlot& slot = g_slots[raiser];
  slot.mask.store(0, std::memory_order_relaxed);
  slot.done_ns.store(0, std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_release);
  int64_t arg = static_cast<int64_t>(
      (static_cast<uint64_t>(raiser) << kRaiserShift) |
      (wide ? kWideBit : 0) | (seq & kSeqMask));
  uint64_t t0 = NowNs();
  (wide ? rig.wide : rig.narrow)->Raise(arg);
  uint64_t done = 0;
  for (uint64_t spins = 0;
       (done = slot.done_ns.load(std::memory_order_acquire)) == 0; ++spins) {
    if (spins < 128) {
      _mm_pause();
    } else {
      std::this_thread::yield();
      if (NowNs() - t0 > kSpinTimeoutNs) {
        *error = "async: handlers of a raise never all ran";
        return 0;
      }
    }
  }
  uint64_t mask = slot.mask.load(std::memory_order_acquire);
  if (mask != FullMask(wide)) {
    *error = "async: handler mask " + std::to_string(mask) +
             " incomplete at completion (" +
             std::to_string(wide ? kWideHandlers : 1) + " handlers)";
    return 0;
  }
  return done > t0 ? done - t0 : 1;
}

}  // namespace

void RunAsync(const Options& options, Result* result) {
  std::unique_ptr<AsyncRig> rig;
  for (int i = 0; i < Setups(options, kAsyncSetups); ++i) {
    rig.reset();
    uint64_t t0 = NowNs();
    rig = BuildAsyncRig(options.traced ? &result->spans : nullptr,
                        static_cast<uint64_t>(i) + 1);
    result->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  for (AsyncSlot& slot : g_slots) slot.errors.store(0);
  if (options.traced) ResetTraceState();

  struct AsyncRaiser {
    LatHist all, narrow, wide;
    uint64_t attempted = 0;
    std::string error;
    SpanBuffer spans;
    uint64_t seq = 0;
    Rng rng{0};
  };
  std::vector<AsyncRaiser> raisers(kAsyncRaisers);
  for (int r = 0; r < kAsyncRaisers; ++r) {
    raisers[r].rng = Rng(options.seed * 7919u + static_cast<uint64_t>(r) + 1);
  }
  uint64_t executed = 0;
  uint64_t steals = 0;
  auto raise_loop = [&](int r, std::atomic<bool>& stop,
                        std::atomic<bool>& measuring, Progress* progress) {
    spin::RaiseSourceScope source(PlacedSource(static_cast<unsigned>(r)));
    AsyncRaiser& me = raisers[r];
    // Each step raises both events, in a seeded order; the pair's mean is
    // one end-to-end sample, so every sample covers the same mix.
    while (!stop.load(std::memory_order_relaxed) && me.error.empty()) {
      bool wide_first = me.rng.Below(2) == 1;
      uint64_t ns[2] = {0, 0};
      for (int k = 0; k < 2 && me.error.empty(); ++k) {
        bool wide = (k == 0) == wide_first;
        ++me.seq;
        ScopedSpan span(options.traced && me.seq % 16 == 0 ? &me.spans
                                                           : nullptr,
                        wide ? "core.Raise.async10" : "core.Raise.async1", 0,
                        me.seq);
        try {
          ns[k] = AsyncRaise(*rig, r, me.seq, wide, &me.error);
        } catch (const std::exception& e) {
          me.error = std::string("async: raise threw: ") + e.what();
        }
        ++me.attempted;
        if (ns[k] != 0 && measuring.load(std::memory_order_relaxed)) {
          (wide ? me.wide : me.narrow).Record(ns[k]);
        }
      }
      if (!me.error.empty()) break;
      if (measuring.load(std::memory_order_relaxed)) {
        me.all.Record((ns[0] + ns[1]) / 2);
      }
      progress->ops.fetch_add(2, std::memory_order_relaxed);
    }
  };
  result->caller_shards = PlacedShards(kAsyncRaisers);
  // Every epoch gets a fresh rig, so its pool workers are new threads too.
  bool first_epoch = true;
  result->ops_per_s = RunEpochs(
      Seconds(options), kAsyncRaisers, &result->ops_intervals,
      [&](std::atomic<bool>& stop, std::atomic<bool>& measuring,
          std::vector<Progress>& progress) {
        if (!first_epoch) rig = BuildAsyncRig(nullptr, 0);
        first_epoch = false;
        if (options.traced) StartTracing(*rig->dispatcher);
        std::vector<std::thread> threads;
        for (int r = 0; r < kAsyncRaisers; ++r) {
          threads.emplace_back(
              [&, r] { raise_loop(r, stop, measuring, &progress[r]); });
        }
        return threads;
      },
      [&] {
        rig->pool->Drain();
        executed += rig->pool->executed();
        steals += rig->pool->steals();
      });
  Dispatcher& d = *rig->dispatcher;
  spin::ThreadPool& pool = *rig->pool;

  Timing& all = result->timings["async_done_ns"];
  Timing& narrow = result->timings["async_done_ns.h1"];
  Timing& wide = result->timings["async_done_ns.h10"];
  for (AsyncRaiser& r : raisers) {
    all.hist.Merge(r.all);
    narrow.hist.Merge(r.narrow);
    wide.hist.Merge(r.wide);
    result->attempted += r.attempted;
    if (!r.error.empty()) result->Fail(r.error);
    result->spans.Append(r.spans);
  }
  for (AsyncSlot& slot : g_slots) {
    uint64_t errors = slot.errors.load();
    if (errors != 0) {
      result->failed += errors;
      result->failures.push_back("async: a handler ran twice or late");
    }
  }
  result->stub_compiles = d.stats().stub_compiles;
  result->scalars["async_raises_per_s"] = result->ops_per_s;

  if (options.traced) {
    std::vector<spin::obs::PhaseStats> phases = spin::obs::SnapshotPhaseStats();
    RecordPhaseTotals(phases, result);
    StopTracing(d);
    result->layer["obs.phase_ns_per_raise.handler_body"] =
        PhaseMeanNs(phases, spin::obs::Phase::kHandlerBody);
    result->layer["obs.phase_ns_per_raise.queue_wait"] =
        PhaseMeanNs(phases, spin::obs::Phase::kQueueWait);
    result->layer["rt.pool.steals_per_task"] =
        executed == 0 ? 0
                      : static_cast<double>(steals) /
                            static_cast<double>(executed);
    result->layer["rt.async_done_us_p50.h1"] =
        static_cast<double>(narrow.hist.Quantile(0.5)) / 1e3;
    result->layer["rt.async_done_us_p50.h10"] =
        static_cast<double>(wide.hist.Quantile(0.5)) / 1e3;
    // Pool tasks per raise, counted on 100 isolated raises of each class.
    spin::RaiseSourceScope source(PlacedSource(0));
    for (bool is_wide : {false, true}) {
      constexpr int kRaises = 100;
      uint64_t base = pool.executed();
      std::string error;
      for (int i = 0; i < kRaises && error.empty(); ++i) {
        ++raisers[0].seq;
        AsyncRaise(*rig, 0, raisers[0].seq, is_wide, &error);
        pool.Drain();
      }
      result->attempted += kRaises;
      if (!error.empty()) result->Fail(error);
      result->layer[is_wide ? "rt.pool.tasks_per_async_raise.h10"
                            : "rt.pool.tasks_per_async_raise.h1"] =
          static_cast<double>(pool.executed() - base) / kRaises;
    }
  }
}

}  // namespace perfbench
