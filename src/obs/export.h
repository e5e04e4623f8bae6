// One typed metric path, rendered two ways.
//
// Each layer (Dispatcher, Host, Exporter, EventProxy, Fleet, Watchdog)
// registers a source: a plain callback that appends typed samples (a
// declared family, label pairs, and a value or, for summaries, a
// HistogramSnapshot) to a MetricSink. The indirection keeps spin_obs free
// of dependencies on the layers it observes.
//
// ExportMetrics(os) renders the Prometheus text format, and export.cc is
// the only code that knows it: one # HELP / # TYPE pair per declared
// family (so tools/validate_metrics.py passes without sources carrying
// metadata), then per-(event, dispatch kind) raise-latency summaries with
// a merged kind="all" series, per-(event, phase) self-time summaries, each
// followed by its _max gauge, flight-recorder health, and every source in
// registration order.
//
// CaptureStats() builds a snapshot from the same counter and gauge samples,
// with no text in between; Delta(a, b) turns two snapshots into a rate
// window, and WriteJsonStats() emits the JSON tools/spin_top.py renders.
#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/obs.h"

namespace spin {
namespace obs {

// One label pair; the value is escaped when the sample is rendered.
using Label = std::pair<const char*, std::string>;

// A counter or gauge value, or a summary's distribution (rendered as
// quantiles plus _count and _sum).
struct MetricSample {
  const char* family;  // declared in export.cc's kFamilies
  std::vector<Label> labels;
  uint64_t value = 0;
  std::unique_ptr<HistogramSnapshot> hist;  // summaries only
};

// Adding a sample of an undeclared family, or of the wrong kind (Add on a
// summary family, AddSummary on any other), trips a SPIN_DCHECK.
class MetricSink {
 public:
  void Add(const char* family, std::vector<Label> labels, uint64_t value);
  void AddSummary(const char* family, std::vector<Label> labels,
                  const HistogramSnapshot& hist);
  const std::vector<MetricSample>& samples() const { return samples_; }

 private:
  std::vector<MetricSample> samples_;
};

using MetricSourceFn = void (*)(void* ctx, MetricSink& sink);

// Registers/unregisters a metric source keyed by `ctx`. Sources run in
// registration order under the source-list lock, so once UnregisterSource
// returns the caller may destroy `ctx`. A source must not (un)register.
void RegisterSource(void* ctx, MetricSourceFn fn);
void UnregisterSource(void* ctx);

// Writes the full exposition to `os`.
void ExportMetrics(std::ostream& os);

// --- Snapshot / delta ----------------------------------------------------

// One (event, dispatch kind) latency distribution, aggregated across every
// live instance with that event name (the exposition's aggregation rule).
struct EventStat {
  std::string event;
  DispatchKind kind = DispatchKind::kDirect;
  HistogramSnapshot hist;
};

// One counter or gauge sample, identified by its full series string
// (name{labels}, as the exposition spells it). `counter` is the declared
// family type: counters accumulate and Delta subtracts them; gauges keep
// the newer value.
struct SeriesSample {
  std::string series;
  uint64_t value = 0;
  bool counter = false;
};

struct StatsSnapshot {
  uint64_t ts_ns = 0;      // monotonic capture time
  uint64_t window_ns = 0;  // 0 on a capture; b.ts - a.ts on a Delta result
  std::vector<EventStat> events;
  std::vector<SeriesSample> series;
};

// Captures every per-event histogram and every source and recorder
// counter/gauge in one pass. The series list comes from the same samples
// the text exposition renders, so the two never drift. Summaries stay out
// of it: event histograms are in `events` at full bucket resolution.
StatsSnapshot CaptureStats();

// The change from snapshot `a` to the later snapshot `b`: counters and
// histogram buckets subtract (clamped at zero against concurrent resets),
// gauges and histogram maxima take b's value, and window_ns is the elapsed
// time — everything a rate display needs.
StatsSnapshot Delta(const StatsSnapshot& a, const StatsSnapshot& b);

// Serializes a snapshot as one JSON object:
//   {"ts_ns":..,"window_ns":..,
//    "events":[{"event":..,"kind":..,"count":..,"sum_ns":..,
//               "p50_ns":..,"p90_ns":..,"p99_ns":..,"max_ns":..}],
//    "series":[{"name":..,"value":..}]}
void WriteJsonStats(std::ostream& os, const StatsSnapshot& snap);

}  // namespace obs
}  // namespace spin

#endif  // SRC_OBS_EXPORT_H_
