// Snapshot/delta stats pipeline: CaptureStats covers live events and every
// exported series, Delta subtracts counters and keeps gauges, and the JSON
// serialization is what tools/spin_top.py consumes. A scrape and a snapshot
// taken back to back agree series for series, and neither races a source
// being unregistered.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "src/core/dispatcher.h"
#include "src/net/host.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/obs/watchdog.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"

namespace spin {
namespace {

struct StatsCtx {};

void Handler(StatsCtx*, int64_t) {}

const obs::SeriesSample* FindSeries(const obs::StatsSnapshot& snap,
                                    const std::string& prefix) {
  for (const obs::SeriesSample& s : snap.series) {
    if (s.series.rfind(prefix, 0) == 0) {
      return &s;
    }
  }
  return nullptr;
}

TEST(StatsTest, CaptureCoversEventsAndSeries) {
  Dispatcher dispatcher;
  Module module("StatsTest");
  Event<void(int64_t)> event("Stats.Op", &module, nullptr, &dispatcher);
  StatsCtx ctx;
  dispatcher.InstallHandler(event, &Handler, &ctx, {.module = &module});

  dispatcher.EnableTracing(true);  // timed raises feed the histograms
  for (int i = 0; i < 10; ++i) {
    event.Raise(i);
  }
  dispatcher.EnableTracing(false);

  obs::StatsSnapshot snap = obs::CaptureStats();
  EXPECT_NE(snap.ts_ns, 0u);
  EXPECT_EQ(snap.window_ns, 0u) << "a raw capture has no window";

  const obs::EventStat* stat = nullptr;
  for (const obs::EventStat& e : snap.events) {
    if (e.event == "Stats.Op") {
      stat = &e;
    }
  }
  ASSERT_NE(stat, nullptr);
  EXPECT_GE(stat->hist.count, 10u);

  const obs::SeriesSample* installs =
      FindSeries(snap, "spin_dispatcher_installs_total");
  ASSERT_NE(installs, nullptr);
  EXPECT_TRUE(installs->counter);
  EXPECT_GE(installs->value, 1u);

  const obs::SeriesSample* depth = FindSeries(snap, "spin_pool_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_FALSE(depth->counter) << "gauges must not be delta-subtracted";

  // Event summaries stay out of the flat series list: the structured
  // histograms above carry them with full resolution.
  EXPECT_EQ(FindSeries(snap, "spin_event_raise_ns"), nullptr);
}

TEST(StatsTest, DeltaSubtractsCountersAndKeepsGauges) {
  obs::StatsSnapshot a;
  a.ts_ns = 1'000;
  a.series = {{"spin_x_total{l=\"1\"}", 10, true},
              {"spin_gauge{l=\"1\"}", 5, false}};
  obs::EventStat ea;
  ea.event = "E";
  ea.kind = obs::DispatchKind::kStub;
  ea.hist.count = 10;
  ea.hist.sum = 1'000;
  ea.hist.max = 400;
  a.events.push_back(ea);

  obs::StatsSnapshot b = a;
  b.ts_ns = 4'000;
  b.series[0].value = 25;
  b.series[1].value = 3;
  b.events[0].hist.count = 16;
  b.events[0].hist.sum = 1'900;
  b.events[0].hist.max = 300;

  obs::StatsSnapshot d = obs::Delta(a, b);
  EXPECT_EQ(d.ts_ns, 4'000u);
  EXPECT_EQ(d.window_ns, 3'000u);
  ASSERT_EQ(d.series.size(), 2u);
  EXPECT_EQ(d.series[0].value, 15u) << "counters subtract";
  EXPECT_EQ(d.series[1].value, 3u) << "gauges keep the newer value";
  ASSERT_EQ(d.events.size(), 1u);
  EXPECT_EQ(d.events[0].hist.count, 6u);
  EXPECT_EQ(d.events[0].hist.sum, 900u);
  EXPECT_EQ(d.events[0].hist.max, 300u) << "max is a window observation";

  // A counter that reset (b < a) clamps to zero instead of wrapping.
  b.series[0].value = 4;
  d = obs::Delta(a, b);
  EXPECT_EQ(d.series[0].value, 0u);
}

// Restart semantics: after the process (or a Histogram::Reset) zeroes the
// source histograms, every shrunken counter clamps to zero instead of
// wrapping to a gigantic unsigned delta. The clamped (all-zero) row is
// suppressed for that one window; the window after it resyncs against the
// post-restart baseline and reports normally.
TEST(StatsTest, DeltaClampsARestartedEventHistogram) {
  obs::StatsSnapshot a;
  a.ts_ns = 1'000;
  obs::EventStat ea;
  ea.event = "Restarted";
  ea.kind = obs::DispatchKind::kStub;
  ea.hist.count = 100;
  ea.hist.sum = 50'000;
  ea.hist.max = 900;
  ea.hist.buckets[10] = 100;
  a.events.push_back(ea);

  obs::StatsSnapshot b = a;
  b.ts_ns = 2'000;
  b.events[0].hist.count = 3;  // restarted: fewer samples than before
  b.events[0].hist.sum = 90;
  b.events[0].hist.max = 60;
  b.events[0].hist.buckets[10] = 0;
  b.events[0].hist.buckets[6] = 3;

  obs::StatsSnapshot d = obs::Delta(a, b);
  EXPECT_TRUE(d.events.empty())
      << "a shrunken histogram clamps to zero (one suppressed window), "
         "never to a wrapped count";

  // The next window diffs post-restart against post-restart and is whole.
  obs::StatsSnapshot c = b;
  c.ts_ns = 3'000;
  c.events[0].hist.count = 8;
  c.events[0].hist.sum = 250;
  c.events[0].hist.buckets[6] = 8;
  d = obs::Delta(b, c);
  ASSERT_EQ(d.events.size(), 1u);
  EXPECT_EQ(d.events[0].hist.count, 5u);
  EXPECT_EQ(d.events[0].hist.sum, 160u);
  EXPECT_EQ(d.events[0].hist.buckets[6], 5u);
  EXPECT_EQ(d.events[0].hist.max, 60u) << "max is the window's observation";
}

// A gauge can vanish between snapshots: spin_phase_ns_max series exist only
// while their event has recorded samples, so a ResetPhaseStats (or a
// restart) removes them. The delta follows the newer snapshot — departed
// series drop out silently, newborn counters report their full value.
TEST(StatsTest, DeltaHandlesDisappearingAndNewbornSeries) {
  obs::StatsSnapshot a;
  a.ts_ns = 1'000;
  a.series = {
      {"spin_phase_ns_max{event=\"E\",phase=\"wire\"}", 800, false},
      {"spin_x_total{l=\"1\"}", 10, true},
  };
  obs::StatsSnapshot b;
  b.ts_ns = 2'000;
  b.series = {
      {"spin_x_total{l=\"1\"}", 12, true},
      {"spin_y_total{l=\"2\"}", 7, true},  // first appearance
  };

  obs::StatsSnapshot d = obs::Delta(a, b);
  ASSERT_EQ(d.series.size(), 2u);
  EXPECT_EQ(FindSeries(d, "spin_phase_ns_max"), nullptr)
      << "a series absent from the newer snapshot is gone, not zero";
  const obs::SeriesSample* x = FindSeries(d, "spin_x_total");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->value, 2u);
  const obs::SeriesSample* y = FindSeries(d, "spin_y_total");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->value, 7u)
      << "a newborn counter's first window is its whole value";
}

TEST(StatsTest, DeltaDropsIdleEventsKeepsActiveOnes) {
  obs::StatsSnapshot a;
  a.ts_ns = 0;
  obs::EventStat idle;
  idle.event = "Idle";
  idle.hist.count = 7;
  a.events.push_back(idle);
  obs::StatsSnapshot b = a;
  b.ts_ns = 100;

  obs::StatsSnapshot d = obs::Delta(a, b);
  EXPECT_TRUE(d.events.empty())
      << "an event with no raises in the window is not a row";
}

TEST(StatsTest, JsonShapeAndEscaping) {
  obs::StatsSnapshot snap;
  snap.ts_ns = 42;
  snap.window_ns = 7;
  obs::EventStat stat;
  stat.event = "Quote\"d";
  stat.kind = obs::DispatchKind::kDirect;
  stat.hist.count = 3;
  stat.hist.sum = 33;
  snap.events.push_back(stat);
  snap.series = {{"spin_y_total{l=\"v\"}", 9, true}};

  std::ostringstream os;
  obs::WriteJsonStats(os, snap);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ts_ns\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"window_ns\":7"), std::string::npos);
  EXPECT_NE(json.find("\"event\":\"Quote\\\"d\""), std::string::npos)
      << "label quotes must be JSON-escaped";
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p50_ns\":"), std::string::npos);
  EXPECT_NE(json.find("spin_y_total{l=\\\"v\\\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
}

// The sample lines of an exposition as {series key -> value}, skipping
// comments and every line of a summary family: its quantiles, _count and
// _sum, and the _max gauge emitted next to it. `counters` collects the
// families declared as counters.
std::map<std::string, uint64_t> ParseExposition(
    const std::string& text, std::set<std::string>* counters) {
  std::map<std::string, uint64_t> samples;
  std::set<std::string> summaries;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string hash, keyword, family, type;
    if (line.rfind("# TYPE ", 0) == 0 &&
        (words >> hash >> keyword >> family >> type)) {
      if (type == "summary") {
        summaries.insert(family);
      } else if (type == "counter") {
        counters->insert(family);
      }
      continue;
    }
    if (line.empty() || line[0] == '#') {
      continue;
    }
    bool summary = false;
    for (const std::string& name : summaries) {
      summary = summary || line.rfind(name, 0) == 0;
    }
    if (summary) {
      continue;
    }
    size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    EXPECT_TRUE(samples.emplace(line.substr(0, space),
                                std::strtoull(line.c_str() + space + 1,
                                              nullptr, 10))
                    .second)
        << "duplicate series " << line;
  }
  return samples;
}

// The snapshot's series list must be exactly the scrape's counter and gauge
// samples, with the same labels and values, in a quiescent state covering
// every kind of source: a sharded dispatcher, hosts, an exporter/proxy
// pair, and a watchdog anomaly.
TEST(StatsTest, ScrapeAndSnapshotAgree) {
  Dispatcher::Config config;
  config.shards = 2;
  Dispatcher dispatcher(config);
  sim::Simulator sim;
  net::Wire wire{&sim, sim::LinkModel{}};
  net::Host client{"client", 0x0a000001, &dispatcher};
  net::Host server{"server", 0x0a000002, &dispatcher};
  wire.Attach(client, server);
  remote::Exporter exporter(server);
  Event<void(int64_t)> server_ev("Stats.Remote", nullptr, nullptr,
                                 &dispatcher);
  StatsCtx ctx;
  dispatcher.InstallHandler(server_ev, &Handler, &ctx);
  exporter.Export(server_ev);
  Event<void(int64_t)> client_ev("Stats.Remote", nullptr, nullptr,
                                 &dispatcher);
  remote::ProxyOptions opts;
  opts.remote_ip = server.ip();
  opts.local_port = 9100;
  remote::EventProxy proxy(client, &sim, client_ev, opts);
  for (int i = 0; i < 3; ++i) {
    client_ev.Raise(i);
  }
  ASSERT_EQ(proxy.raises(), 3u);
  obs::Watchdog::Global().Report(obs::AnomalyKind::kQueueStall, "stats/queue",
                                 1, 5);

  std::ostringstream text;
  obs::ExportMetrics(text);
  obs::StatsSnapshot snap = obs::CaptureStats();

  std::set<std::string> counters;
  std::map<std::string, uint64_t> scraped =
      ParseExposition(text.str(), &counters);
  std::map<std::string, uint64_t> captured;
  for (const obs::SeriesSample& s : snap.series) {
    EXPECT_TRUE(captured.emplace(s.series, s.value).second)
        << "duplicate series " << s.series;
    EXPECT_EQ(s.counter, counters.count(s.series.substr(
                             0, s.series.find('{'))) == 1)
        << s.series << ": counter-ness is the declared family type";
  }
  EXPECT_EQ(scraped, captured) << text.str();

  for (const char* series :
       {"spin_dispatcher_shard_raises_total{instance=",
        "spin_net_rx_packets_total{host=\"server\"}",
        "spin_remote_server_requests_total{host=\"server\"}",
        "spin_remote_client_raises_total{host=\"client\","
        "event=\"Stats.Remote\"} 3",
        "spin_remote_roundtrip_ns_count{host=\"client\","
        "event=\"Stats.Remote\"} 3",
        "spin_anomalies_total{kind=\"queue_stall\",shard=\"1\",event=\"\"}"}) {
    EXPECT_NE(text.str().find(series), std::string::npos) << series;
  }
}

// ~Dispatcher and ~Host unregister their sources and then free themselves.
// A scrape on another thread must never run a source whose owner is gone:
// ASan reports it as a use-after-free, TSan as a race on a destroyed mutex.
TEST(StatsTest, ScrapeRacesSourceUnregistration) {
  std::atomic<bool> done{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::ostringstream os;
      obs::ExportMetrics(os);
      obs::CaptureStats();
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  Dispatcher::Config config;
  config.shards = 2;
  for (int i = 0; i < 1000; ++i) {
    Dispatcher dispatcher(config);
    net::Host host("race", 0x0a0000ff, &dispatcher);
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);
}

}  // namespace
}  // namespace spin
