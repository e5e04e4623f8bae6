#include "src/obs/export.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "src/obs/context.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/rt/clock.h"

namespace spin {
namespace obs {
namespace {

struct Source {
  void* ctx;
  MetricSourceFn fn;
};

struct SourceList {
  std::atomic_flag lock = ATOMIC_FLAG_INIT;
  std::vector<Source> sources;

  void Lock() {
    while (lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  void Unlock() { lock.clear(std::memory_order_release); }
};

SourceList& Sources() {
  static SourceList* list = new SourceList();  // intentionally leaked
  return *list;
}

// Every metric family any layer can emit, declared centrally so the
// exposition carries one # HELP / # TYPE pair per family regardless of
// which sources happen to be registered. tools/validate_metrics.py fails
// the build when a sample appears without a matching declaration, so a new
// series name starts here.
struct Family {
  const char* name;
  const char* type;
  const char* help;
};

constexpr Family kFamilies[] = {
    {"spin_event_raise_ns", "summary",
     "Event dispatch latency in nanoseconds, split by dispatch kind."},
    {"spin_event_raise_ns_max", "gauge",
     "Largest dispatch latency observed per (event, kind)."},
    {"spin_trace_overwrites_total", "counter",
     "Flight-recorder records lost to ring wraparound since the last "
     "reset, globally and per thread ring."},
    {"spin_trace_emits_total", "counter",
     "Flight-recorder records written since the last reset, globally and "
     "per thread ring."},
    {"spin_trace_spans_started_total", "counter",
     "Causal spans allocated."},
    {"spin_trace_spans_completed_total", "counter",
     "Causal spans whose final executor exited."},
    {"spin_trace_cross_host_spans_total", "counter",
     "Wire-carried spans dispatched on another simulated host."},
    {"spin_trace_orphan_records_total", "counter",
     "Records emitted with no active span."},
    {"spin_anomalies_total", "counter",
     "Watchdog-detected anomalies by kind and shard; the event label "
     "names the offending event where the rule knows it (empty for "
     "queue/epoch/ring rules)."},
    {"spin_phase_ns", "summary",
     "Dispatch phase self-time in nanoseconds per (event, phase); "
     "virtual-clock phases (wire_virtual, backoff) are simulator-clock "
     "durations."},
    {"spin_phase_ns_max", "gauge",
     "Largest phase self-time observed per (event, phase)."},
    {"spin_dispatcher_installs_total", "counter", "Handler installs."},
    {"spin_dispatcher_uninstalls_total", "counter", "Handler uninstalls."},
    {"spin_dispatcher_rebuilds_total", "counter",
     "Dispatch table rebuilds."},
    {"spin_dispatcher_stub_compiles_total", "counter",
     "Dispatch routines compiled."},
    {"spin_dispatcher_lazy_promotions_total", "counter",
     "Lazy events promoted to compiled dispatch."},
    {"spin_dispatcher_stub_replicas_total", "counter",
     "Per-shard byte-copies of compiled stubs (0: shards share one)."},
    {"spin_dispatcher_direct_tables_total", "counter",
     "Tables built with the intrinsic-bypass direct call."},
    {"spin_dispatcher_interp_tables_total", "counter",
     "Tables built for interpreted dispatch."},
    {"spin_dispatcher_tree_tables_total", "counter",
     "Tables built with a guard decision tree."},
    {"spin_dispatcher_shards", "gauge",
     "Dispatch shards configured for this instance."},
    {"spin_dispatcher_shard_raises_total", "counter",
     "Raises routed to each shard."},
    {"spin_pool_queue_depth", "gauge",
     "Tasks waiting in the pool queues."},
    {"spin_pool_pending", "gauge",
     "Tasks queued or executing on the pool."},
    {"spin_pool_executed_total", "counter", "Tasks finished by the pool."},
    {"spin_pool_steals_total", "counter",
     "Tasks stolen across pool queues."},
    {"spin_epoch_current", "gauge", "Current epoch of the domain."},
    {"spin_epoch_retired", "gauge",
     "Objects retired and awaiting reclamation."},
    {"spin_epoch_reclaimed_total", "counter",
     "Objects freed over the domain's lifetime."},
    {"spin_quota_used_bytes", "gauge", "Bytes charged per module."},
    {"spin_quota_limit_bytes", "gauge", "Quota limit per module."},
    {"spin_net_rx_packets_total", "counter", "Packets received."},
    {"spin_net_tx_packets_total", "counter", "Packets transmitted."},
    {"spin_net_rx_dropped_total", "counter",
     "Received packets dropped."},
    {"spin_net_tx_dropped_total", "counter",
     "Transmitted packets dropped."},
    {"spin_net_ip_checksum_drops_total", "counter",
     "Packets dropped for a bad IP checksum."},
    {"spin_net_udp_checksum_drops_total", "counter",
     "Packets dropped for a bad UDP checksum."},
    {"spin_fleet_hosts", "gauge", "Simulated hosts in the fleet."},
    {"spin_fleet_connections", "gauge", "Fleet TCP connections."},
    {"spin_fleet_established", "gauge",
     "Fleet connections fully established."},
    {"spin_fleet_dead_connections", "gauge",
     "Fleet connections aborted after retry exhaustion."},
    {"spin_fleet_requests_total", "counter", "Fleet requests issued."},
    {"spin_fleet_responses_total", "counter",
     "Fleet responses fully delivered."},
    {"spin_fleet_response_bytes_total", "counter",
     "Fleet response bytes delivered."},
    {"spin_fleet_retransmissions_total", "counter",
     "TCP retransmissions across the fleet."},
    {"spin_fleet_wire_frames_lost_total", "counter",
     "Frames dropped by fleet wires."},
    {"spin_fleet_swaps_granted_total", "counter",
     "Stack hot-swaps admitted by the authorizer."},
    {"spin_fleet_swaps_denied_total", "counter",
     "Stack hot-swaps rejected by the authorizer."},
    {"spin_remote_client_raises_total", "counter",
     "Remote raises issued by a proxy."},
    {"spin_remote_client_retries_total", "counter",
     "Remote request retransmissions."},
    {"spin_remote_client_timeouts_total", "counter",
     "Remote requests that exhausted their retry budget."},
    {"spin_remote_client_dead_raises_total", "counter",
     "Raises against a proxy whose binding was revoked."},
    {"spin_remote_client_revoke_notices_total", "counter",
     "Revocation notices received by a proxy."},
    {"spin_remote_roundtrip_ns", "summary",
     "Remote raise roundtrip latency in nanoseconds."},
    {"spin_remote_server_requests_total", "counter",
     "Wire requests accepted by an exporter."},
    {"spin_remote_server_binds_total", "counter",
     "Bind handshakes granted."},
    {"spin_remote_server_unbound_total", "counter",
     "Raises rejected for a missing binding."},
    {"spin_remote_server_bad_requests_total", "counter",
     "Undecodable or malformed wire frames."},
    {"spin_remote_server_dedup_hits_total", "counter",
     "Duplicate deliveries suppressed by the replay cache."},
    {"spin_remote_server_exceptions_total", "counter",
     "Dispatches that threw back across the wire."},
    {"spin_remote_server_guard_rejected_total", "counter",
     "Wire raises rejected by an imposed guard."},
    {"spin_remote_server_auth_denied_total", "counter",
     "Bind handshakes denied by the authorizer."},
    {"spin_remote_server_revoked_tokens_total", "counter",
     "Capability tokens revoked."},
    {"spin_remote_server_revoked_raises_total", "counter",
     "Raises rejected for a revoked token."},
};

void WriteSummarySeries(std::ostream& os, const std::string& event,
                        const char* kind, const HistogramSnapshot& snap) {
  auto labels = [&](std::ostream& o) {
    o << "{event=\"";
    WriteLabelValue(o, event);
    o << "\",kind=\"" << kind << "\"";
  };
  const struct {
    const char* q;
    double v;
  } quantiles[] = {{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}};
  for (const auto& q : quantiles) {
    os << "spin_event_raise_ns";
    labels(os);
    os << ",quantile=\"" << q.q << "\"} " << snap.Percentile(q.v) << "\n";
  }
  os << "spin_event_raise_ns_count";
  labels(os);
  os << "} " << snap.count << "\n";
  os << "spin_event_raise_ns_sum";
  labels(os);
  os << "} " << snap.sum << "\n";
  os << "spin_event_raise_ns_max";
  labels(os);
  os << "} " << snap.max << "\n";
}

// Aggregates live per-instance metrics by event name so re-registered
// events (and same-named events on different dispatchers) form one series
// per label set, as Prometheus requires.
struct EventAgg {
  std::string name;
  HistogramSnapshot kinds[kNumDispatchKinds];
};

std::vector<EventAgg> AggregateEvents() {
  std::vector<EventAgg> aggs;
  for (const auto& metrics : Registry::Global().List()) {
    EventAgg* agg = nullptr;
    for (EventAgg& a : aggs) {
      if (a.name == metrics->name()) {
        agg = &a;
        break;
      }
    }
    if (agg == nullptr) {
      aggs.push_back(EventAgg{metrics->name(), {}});
      agg = &aggs.back();
    }
    for (size_t k = 0; k < kNumDispatchKinds; ++k) {
      agg->kinds[k].Merge(
          metrics->hist(static_cast<DispatchKind>(k)).Snapshot());
    }
  }
  return aggs;
}

void JsonEscape(std::ostream& os, const std::string& s) {
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << static_cast<char>(c);
        }
    }
  }
}

}  // namespace

void WriteLabelValue(std::ostream& os, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '\\':
        os << "\\\\";
        break;
      case '"':
        os << "\\\"";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
}

void RegisterSource(void* ctx, MetricSourceFn fn) {
  SourceList& list = Sources();
  list.Lock();
  list.sources.push_back(Source{ctx, fn});
  list.Unlock();
}

void UnregisterSource(void* ctx) {
  SourceList& list = Sources();
  list.Lock();
  for (auto it = list.sources.begin(); it != list.sources.end();) {
    it = it->ctx == ctx ? list.sources.erase(it) : it + 1;
  }
  list.Unlock();
}

void ExportMetrics(std::ostream& os) {
  for (const Family& family : kFamilies) {
    os << "# HELP " << family.name << " " << family.help << "\n";
    os << "# TYPE " << family.name << " " << family.type << "\n";
  }

  for (const EventAgg& agg : AggregateEvents()) {
    HistogramSnapshot all;
    for (size_t k = 0; k < kNumDispatchKinds; ++k) {
      const HistogramSnapshot& snap = agg.kinds[k];
      if (snap.count == 0) {
        continue;
      }
      all.Merge(snap);
      WriteSummarySeries(os, agg.name,
                         DispatchKindName(static_cast<DispatchKind>(k)),
                         snap);
    }
    if (all.count != 0) {
      WriteSummarySeries(os, agg.name, "all", all);
    }
  }

  // Per-(event, phase) self-time summaries from the PhaseScope registry.
  for (const PhaseStats& stats : SnapshotPhaseStats()) {
    for (size_t p = 0; p < kNumPhases; ++p) {
      const HistogramSnapshot& snap = stats.phases[p];
      if (snap.count == 0) {
        continue;
      }
      const char* phase = PhaseName(static_cast<Phase>(p));
      auto labels = [&](std::ostream& o) {
        o << "{event=\"";
        WriteLabelValue(o, stats.event);
        o << "\",phase=\"" << phase << "\"";
      };
      const struct {
        const char* q;
        double v;
      } quantiles[] = {{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}};
      for (const auto& q : quantiles) {
        os << "spin_phase_ns";
        labels(os);
        os << ",quantile=\"" << q.q << "\"} " << snap.Percentile(q.v) << "\n";
      }
      os << "spin_phase_ns_count";
      labels(os);
      os << "} " << snap.count << "\n";
      os << "spin_phase_ns_sum";
      labels(os);
      os << "} " << snap.sum << "\n";
      os << "spin_phase_ns_max";
      labels(os);
      os << "} " << snap.max << "\n";
    }
  }

  // Flight-recorder health and span accounting. Overwrites flag a
  // truncated capture window; the per-thread breakdown shows *which* ring
  // is dropping (one hot thread can silently lose its half of every trace
  // while the global sum looks tolerable); orphans are records emitted
  // outside any span.
  FlightRecorder& recorder = FlightRecorder::Global();
  os << "spin_trace_overwrites_total{recorder=\"global\"} "
     << recorder.TotalOverwrites() << "\n";
  os << "spin_trace_emits_total{recorder=\"global\"} "
     << recorder.TotalEmits() << "\n";
  for (const FlightRecorder::RingStats& ring : recorder.PerRingStats()) {
    os << "spin_trace_overwrites_total{thread=\"" << ring.tid << "\"} "
       << ring.overwrites << "\n";
    os << "spin_trace_emits_total{thread=\"" << ring.tid << "\"} "
       << ring.emits << "\n";
  }
  SpanStats spans = GetSpanStats();
  os << "spin_trace_spans_started_total{recorder=\"global\"} "
     << spans.started << "\n";
  os << "spin_trace_spans_completed_total{recorder=\"global\"} "
     << spans.completed << "\n";
  os << "spin_trace_cross_host_spans_total{recorder=\"global\"} "
     << spans.cross_host << "\n";
  os << "spin_trace_orphan_records_total{recorder=\"global\"} "
     << spans.orphans << "\n";

  // External sources (dispatchers, and whatever embedders add).
  SourceList& list = Sources();
  list.Lock();
  std::vector<Source> sources = list.sources;
  list.Unlock();
  for (const Source& source : sources) {
    source.fn(source.ctx, os);
  }
}

// --- Snapshot / delta ----------------------------------------------------

StatsSnapshot CaptureStats() {
  StatsSnapshot snap;
  snap.ts_ns = NowNs();

  for (const EventAgg& agg : AggregateEvents()) {
    for (size_t k = 0; k < kNumDispatchKinds; ++k) {
      if (agg.kinds[k].count == 0) {
        continue;
      }
      EventStat stat;
      stat.event = agg.name;
      stat.kind = static_cast<DispatchKind>(k);
      stat.hist = agg.kinds[k];
      snap.events.push_back(std::move(stat));
    }
  }

  // The series list is parsed out of the text exposition so a snapshot
  // covers exactly what a scrape covers — new sources are picked up with
  // no snapshot-side changes. Event summaries are skipped: the structured
  // histograms above carry them with full bucket resolution.
  std::ostringstream text;
  ExportMetrics(text);
  std::istringstream lines(text.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      continue;
    }
    std::string series = line.substr(0, space);
    if (series.rfind("spin_event_raise_ns", 0) == 0 ||
        series.rfind("spin_phase_ns", 0) == 0) {
      // Summaries with structured counterparts: event histograms live in
      // snap.events; phase histograms come from SnapshotPhaseStats().
      continue;
    }
    SeriesSample sample;
    sample.series = std::move(series);
    sample.value = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    size_t brace = sample.series.find('{');
    std::string name = brace == std::string::npos
                           ? sample.series
                           : sample.series.substr(0, brace);
    sample.counter = name.size() >= 6 &&
                     name.compare(name.size() - 6, 6, "_total") == 0;
    snap.series.push_back(std::move(sample));
  }
  return snap;
}

StatsSnapshot Delta(const StatsSnapshot& a, const StatsSnapshot& b) {
  StatsSnapshot out;
  out.ts_ns = b.ts_ns;
  out.window_ns = b.ts_ns >= a.ts_ns ? b.ts_ns - a.ts_ns : 0;

  for (const EventStat& eb : b.events) {
    const EventStat* ea = nullptr;
    for (const EventStat& cand : a.events) {
      if (cand.event == eb.event && cand.kind == eb.kind) {
        ea = &cand;
        break;
      }
    }
    EventStat d = eb;
    if (ea != nullptr) {
      d.hist.count = eb.hist.count >= ea->hist.count
                         ? eb.hist.count - ea->hist.count
                         : 0;
      d.hist.sum =
          eb.hist.sum >= ea->hist.sum ? eb.hist.sum - ea->hist.sum : 0;
      for (size_t i = 0; i < kNumBuckets; ++i) {
        d.hist.buckets[i] = eb.hist.buckets[i] >= ea->hist.buckets[i]
                                ? eb.hist.buckets[i] - ea->hist.buckets[i]
                                : 0;
      }
      // max is not a counter; the window keeps the newer observation.
      d.hist.max = eb.hist.max;
    }
    if (d.hist.count != 0 || ea == nullptr) {
      out.events.push_back(std::move(d));
    }
  }

  for (const SeriesSample& sb : b.series) {
    const SeriesSample* sa = nullptr;
    for (const SeriesSample& cand : a.series) {
      if (cand.series == sb.series) {
        sa = &cand;
        break;
      }
    }
    SeriesSample d = sb;
    if (sb.counter && sa != nullptr) {
      d.value = sb.value >= sa->value ? sb.value - sa->value : 0;
    }
    out.series.push_back(std::move(d));
  }
  return out;
}

void WriteJsonStats(std::ostream& os, const StatsSnapshot& snap) {
  os << "{\"ts_ns\":" << snap.ts_ns << ",\"window_ns\":" << snap.window_ns
     << ",\"events\":[";
  bool first = true;
  for (const EventStat& stat : snap.events) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"event\":\"";
    JsonEscape(os, stat.event);
    os << "\",\"kind\":\"" << DispatchKindName(stat.kind) << "\""
       << ",\"count\":" << stat.hist.count << ",\"sum_ns\":" << stat.hist.sum
       << ",\"p50_ns\":" << stat.hist.Percentile(0.5)
       << ",\"p90_ns\":" << stat.hist.Percentile(0.9)
       << ",\"p99_ns\":" << stat.hist.Percentile(0.99)
       << ",\"max_ns\":" << stat.hist.max << "}";
  }
  os << "],\"series\":[";
  first = true;
  for (const SeriesSample& sample : snap.series) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"name\":\"";
    JsonEscape(os, sample.series);
    os << "\",\"value\":" << sample.value << "}";
  }
  os << "]}";
}

}  // namespace obs
}  // namespace spin
