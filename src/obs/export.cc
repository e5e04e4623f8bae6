#include "src/obs/export.h"

#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <vector>

#include "src/obs/context.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/rt/clock.h"
#include "src/rt/panic.h"

namespace spin {
namespace obs {
namespace {

struct Source {
  void* ctx;
  MetricSourceFn fn;
};

// Sources run under `mu`, so UnregisterSource cannot return while its
// source is running.
struct SourceList {
  std::mutex mu;
  std::vector<Source> sources;
};

SourceList& Sources() {
  static SourceList* list = new SourceList();  // intentionally leaked
  return *list;
}

// Every metric family any layer can emit, declared centrally so the
// exposition carries one # HELP / # TYPE pair per family regardless of
// which sources happen to be registered. MetricSink checks every sample
// against this table (and tools/validate_metrics.py lints the rendered
// text), so a new series name starts here.
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

// Whether `family` is declared in kFamilies with `type`.
bool Declared(const char* family, const char* type) {
  for (const Family& f : kFamilies) {
    if (std::strcmp(f.name, family) == 0) {
      return std::strcmp(f.type, type) == 0;
    }
  }
  return false;
}

// Escapes a Prometheus label value (backslash, quote, newline) or, with
// `json`, a JSON string (those plus the other control characters).
void WriteEscaped(std::ostream& os, const std::string& value, bool json) {
  for (char ch : value) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '\\' || c == '"') {
      os << '\\' << ch;
    } else if (c == '\n') {
      os << "\\n";
    } else if (json && c == '\t') {
      os << "\\t";
    } else if (json && c == '\r') {
      os << "\\r";
    } else if (json && c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << ch;
    }
  }
}

// Writes a series key, name{label="value",...}: the exposition's sample
// prefix and the JSON series name. `quantile` (summaries) is appended as
// the last label.
void WriteSeries(std::ostream& os, const char* family, const char* suffix,
                 const std::vector<Label>& labels,
                 const char* quantile = nullptr) {
  os << family << suffix;
  char sep = '{';
  for (const auto& [name, value] : labels) {
    os << sep << name << "=\"";
    WriteEscaped(os, value, /*json=*/false);
    os << '"';
    sep = ',';
  }
  if (quantile != nullptr) {
    os << sep << "quantile=\"" << quantile << '"';
    sep = ',';
  }
  if (sep == ',') {
    os << '}';
  }
}

void WriteSample(std::ostream& os, const MetricSample& sample) {
  auto line = [&](const char* suffix, uint64_t value,
                  const char* quantile = nullptr) {
    WriteSeries(os, sample.family, suffix, sample.labels, quantile);
    os << " " << value << "\n";
  };
  if (sample.hist == nullptr) {
    line("", sample.value);
    return;
  }
  const std::pair<const char*, double> quantiles[] = {
      {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}};
  for (const auto& [label, q] : quantiles) {
    line("", sample.hist->Percentile(q), label);
  }
  line("_count", sample.hist->count);
  line("_sum", sample.hist->sum);
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

// Event and phase summaries, each followed by its _max gauge. Only the
// exposition carries these: CaptureStats keeps event histograms whole, and
// phase histograms come from SnapshotPhaseStats().
void AddDistributions(MetricSink& sink) {
  for (const EventAgg& agg : AggregateEvents()) {
    auto add = [&](const char* kind, const HistogramSnapshot& snap) {
      std::vector<Label> labels = {{"event", agg.name}, {"kind", kind}};
      sink.AddSummary("spin_event_raise_ns", labels, snap);
      sink.Add("spin_event_raise_ns_max", std::move(labels), snap.max);
    };
    HistogramSnapshot all;
    for (size_t k = 0; k < kNumDispatchKinds; ++k) {
      if (agg.kinds[k].count != 0) {
        all.Merge(agg.kinds[k]);
        add(DispatchKindName(static_cast<DispatchKind>(k)), agg.kinds[k]);
      }
    }
    if (all.count != 0) {
      add("all", all);
    }
  }
  for (const PhaseStats& stats : SnapshotPhaseStats()) {
    for (size_t p = 0; p < kNumPhases; ++p) {
      const HistogramSnapshot& snap = stats.phases[p];
      if (snap.count == 0) {
        continue;
      }
      std::vector<Label> labels = {{"event", stats.event},
                                   {"phase", PhaseName(static_cast<Phase>(p))}};
      sink.AddSummary("spin_phase_ns", labels, snap);
      sink.Add("spin_phase_ns_max", std::move(labels), snap.max);
    }
  }
}

// Flight-recorder health and span accounting, then every registered
// source. Overwrites flag a truncated capture window; the per-thread
// breakdown shows *which* ring is dropping (one hot thread can silently
// lose its half of every trace while the global sum looks tolerable);
// orphans are records emitted outside any span.
void AddSeries(MetricSink& sink) {
  FlightRecorder& recorder = FlightRecorder::Global();
  const std::vector<Label> global = {{"recorder", "global"}};
  sink.Add("spin_trace_overwrites_total", global, recorder.TotalOverwrites());
  sink.Add("spin_trace_emits_total", global, recorder.TotalEmits());
  for (const FlightRecorder::RingStats& ring : recorder.PerRingStats()) {
    const std::vector<Label> thread = {{"thread", std::to_string(ring.tid)}};
    sink.Add("spin_trace_overwrites_total", thread, ring.overwrites);
    sink.Add("spin_trace_emits_total", thread, ring.emits);
  }
  SpanStats spans = GetSpanStats();
  sink.Add("spin_trace_spans_started_total", global, spans.started);
  sink.Add("spin_trace_spans_completed_total", global, spans.completed);
  sink.Add("spin_trace_cross_host_spans_total", global, spans.cross_host);
  sink.Add("spin_trace_orphan_records_total", global, spans.orphans);

  SourceList& list = Sources();
  std::lock_guard<std::mutex> lock(list.mu);
  for (const Source& source : list.sources) {
    source.fn(source.ctx, sink);
  }
}

}  // namespace

void MetricSink::Add(const char* family, std::vector<Label> labels,
                     uint64_t value) {
  SPIN_DCHECK(Declared(family, "counter") || Declared(family, "gauge"));
  samples_.push_back(MetricSample{family, std::move(labels), value, nullptr});
}

void MetricSink::AddSummary(const char* family, std::vector<Label> labels,
                            const HistogramSnapshot& hist) {
  SPIN_DCHECK(Declared(family, "summary"));
  samples_.push_back(MetricSample{family, std::move(labels), 0,
                                  std::make_unique<HistogramSnapshot>(hist)});
}

void RegisterSource(void* ctx, MetricSourceFn fn) {
  SourceList& list = Sources();
  std::lock_guard<std::mutex> lock(list.mu);
  list.sources.push_back(Source{ctx, fn});
}

void UnregisterSource(void* ctx) {
  SourceList& list = Sources();
  std::lock_guard<std::mutex> lock(list.mu);
  std::erase_if(list.sources, [ctx](const Source& s) { return s.ctx == ctx; });
}

void ExportMetrics(std::ostream& os) {
  // Collect first, render after: no source runs while `os` blocks.
  MetricSink sink;
  AddDistributions(sink);
  AddSeries(sink);
  for (const Family& family : kFamilies) {
    os << "# HELP " << family.name << " " << family.help << "\n";
    os << "# TYPE " << family.name << " " << family.type << "\n";
  }
  for (const MetricSample& sample : sink.samples()) {
    WriteSample(os, sample);
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

  // Summaries stay out: a flat series cannot carry a distribution.
  MetricSink sink;
  AddSeries(sink);
  for (const MetricSample& sample : sink.samples()) {
    if (sample.hist != nullptr) {
      continue;
    }
    std::ostringstream series;
    WriteSeries(series, sample.family, "", sample.labels);
    snap.series.push_back(SeriesSample{series.str(), sample.value,
                                       Declared(sample.family, "counter")});
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
    WriteEscaped(os, stat.event, /*json=*/true);
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
    WriteEscaped(os, sample.series, /*json=*/true);
    os << "\",\"value\":" << sample.value << "}";
  }
  os << "]}";
}

}  // namespace obs
}  // namespace spin
