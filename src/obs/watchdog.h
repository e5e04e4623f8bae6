// Anomaly watchdog: always-on detection of the failure modes that matter
// for a dispatcher carrying production traffic.
//
// Two detection planes share one reporting path:
//   - Inline deadline checks. The dispatch hot path calls CheckDispatch
//     with each measured raise duration (it measures whenever tracing,
//     profiling, or the watchdog is on). The limit is per-event — derived
//     from that event's observed p99 by the monitor thread, capped by the
//     absolute deadline — so a uniformly slow event and a single stalled
//     handler both trip it. Cost when disarmed: one relaxed load.
//   - A low-frequency monitor thread. Each period it polls registered
//     probes (pool queues, epoch domains, remote retry counters — the
//     observed layers register themselves, keeping spin_obs dependency-
//     free) and applies per-domain rules: a queue with backlog and no
//     progress across a full period is stalled; backlog above the limit is
//     flagged outright; retired objects with no reclamation progress mean
//     epoch reclamation is stuck; a retry-counter jump above the limit in
//     one period is a storm.
//
// Every anomaly bumps spin_anomalies_total{kind,shard,event}, emits a
// TraceKind::kAnomaly flight-recorder record (even from inside an
// unsampled raise — anomalies override the sampling decision), and can
// latch a one-shot full-fidelity trace burst: the trace config is switched
// to kFull for burst_periods monitor periods, so the flight recorder holds
// a complete capture of the incident's aftermath ("dump on incident").
#ifndef SRC_OBS_WATCHDOG_H_
#define SRC_OBS_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/obs/obs.h"

namespace spin {
namespace obs {

class MetricSink;

namespace internal {
// One relaxed load on the dispatch path decides whether to time a raise
// for the watchdog; g_slow_ns is the absolute deadline fallback when an
// event has no derived per-event deadline yet.
extern std::atomic<bool> g_watchdog_armed;
extern std::atomic<uint64_t> g_slow_ns;
}  // namespace internal

enum class AnomalyKind : uint8_t {
  kSlowHandler = 0,  // a dispatch exceeded its deadline; value = ns
  kQueueStall = 1,   // pool queue has backlog but made no progress
  kOutboxBacklog = 2,  // pool queue depth above the configured limit
  kEpochStall = 3,   // retired objects with no reclamation progress
  kRetryStorm = 4,   // remote retry counter jumped above the limit
  kTraceDrops = 5,   // a flight-recorder ring overwrote >= trace_drop_ratio
                     // of the records it emitted in one monitor period
};
inline constexpr size_t kNumAnomalyKinds = 6;
const char* AnomalyKindName(AnomalyKind kind);

// One monitored quantity, reported by a probe once per monitor period.
// `kind` selects the rule set: kQueueStall samples get the stall and the
// backlog rules, kEpochStall the stall rule, kRetryStorm the rate rule.
// `name` must be interned (obs::Intern) — it is stamped into kAnomaly
// records. `depth` is the current backlog (queue depth, retired count);
// `progress` a monotone counter (executed, reclaimed, retries).
struct WatchSample {
  AnomalyKind kind = AnomalyKind::kQueueStall;
  const char* name = nullptr;
  uint32_t shard = 0;
  uint64_t depth = 0;
  uint64_t progress = 0;
};

using WatchProbeFn = void (*)(void* ctx, std::vector<WatchSample>& out);

struct WatchdogConfig {
  // Monitor thread wakeup period. 0 = no thread; the embedder (or a
  // deterministic test) drives detection by calling Poll() itself.
  uint64_t period_ms = 100;
  // Absolute slow-dispatch deadline; also the cap for derived per-event
  // deadlines. 0 disables the inline check.
  uint64_t slow_handler_ns = 10'000'000;  // 10 ms
  // Per-event deadline = clamp(p99 * p99_factor, slow_handler_floor_ns,
  // slow_handler_ns), refreshed each period once the event has
  // min_samples. An event with a tight p99 is caught far below the
  // absolute deadline; the floor keeps ns-scale events from tripping on
  // scheduler noise.
  double p99_factor = 8.0;
  uint64_t slow_handler_floor_ns = 1'000'000;  // 1 ms
  uint64_t min_samples = 64;
  // kOutboxBacklog fires when a queue sample's depth reaches this.
  uint64_t outbox_backlog = 1024;
  // The epoch stall rule only applies at or above this retired backlog: a
  // couple of retired tables parked between rebuilds is the steady state
  // of epoch reclamation, not an incident.
  uint64_t epoch_stall_min = 8;
  // kRetryStorm fires when a retry counter advances by this much within
  // one monitor period.
  uint64_t retry_storm = 64;
  // kTraceDrops fires when, over one monitor period, a flight-recorder
  // ring's overwrite delta reaches this fraction of its emit delta (the
  // ring is discarding at least that share of what tracing produces —
  // grow the ring or lower the sample rate). 0 disables the rule. The
  // monitor samples FlightRecorder::PerRingStats() directly; no probe
  // registration is involved.
  double trace_drop_ratio = 0.25;
  // The ratio is meaningless on a near-idle ring (one anomaly record
  // landing in a full ring is 1 overwrite / 1 emit), so the rule needs at
  // least this many emits on the ring within the period.
  uint64_t trace_drop_min_emits = 64;
  // Latch a one-shot full-fidelity capture on the first anomaly.
  bool trace_burst = false;
  uint64_t burst_periods = 1;
};

class Watchdog {
 public:
  // Process-wide watchdog; probes and the dispatch hot path talk to this
  // instance.
  static Watchdog& Global();

  // Installs `config`, arms the inline checks, and (period_ms != 0)
  // starts the monitor thread. Re-arming replaces the configuration and
  // resets the one-shot burst latch.
  void Arm(const WatchdogConfig& config);
  // Stops the monitor thread, disarms the inline checks, and restores the
  // trace config if a burst was active. Counters are kept.
  void Disarm();
  bool armed() const {
    return internal::g_watchdog_armed.load(std::memory_order_relaxed);
  }

  // One monitor pass: polls every probe, applies the rules, refreshes
  // per-event slow deadlines, and retires an expired trace burst. The
  // monitor thread calls this each period; deterministic tests call it
  // directly.
  void Poll();

  // Registers/unregisters a probe keyed by `ctx`. Thread-safe; polled
  // only while armed. UnregisterProbe blocks until any in-flight Poll()
  // has finished invoking probes, so on return the caller may destroy
  // `ctx`. Must not be called from inside a probe callback.
  void RegisterProbe(void* ctx, WatchProbeFn fn);
  void UnregisterProbe(void* ctx);

  // Records an anomaly: bumps spin_anomalies_total{kind,shard,event},
  // emits a kAnomaly record named `name` with arg = (kind << 32) | shard,
  // and latches the trace burst if configured. `value` is the measurement
  // that tripped the rule (ns, depth, or counter delta), kept in the
  // last-anomaly register exposed by last_value(). The event label is
  // taken from `name` only for kSlowHandler — the deadline check knows
  // which event blew its budget; the monitor rules watch queues, domains,
  // and rings, not events, so their label stays empty.
  void Report(AnomalyKind kind, const char* name, uint32_t shard,
              uint64_t value);

  // The `value` of the most recent Report, for diagnostics and tests.
  uint64_t last_value() const;

  // Total anomalies of `kind` on `shard` since process start, summed
  // across event labels.
  uint64_t Count(AnomalyKind kind, uint32_t shard) const;
  // Sum over all shards.
  uint64_t Count(AnomalyKind kind) const;

  // Re-enables the one-shot trace burst after it has fired.
  void RearmBurst();
  bool burst_active() const;

  WatchdogConfig config() const;

 private:
  Watchdog();

  void MonitorLoop();
  void RefreshSlowDeadlines();
  void RetireBurstLocked();
  static void ExportMetricsSource(void* ctx, MetricSink& sink);

  struct Probe {
    void* ctx;
    WatchProbeFn fn;
  };
  // Previous observation for the delta rules, keyed by (name, kind,
  // shard). Names are interned so the pointer is a stable identity.
  using SampleKey = std::tuple<const void*, uint8_t, uint32_t>;
  struct PrevSample {
    uint64_t depth = 0;
    uint64_t progress = 0;
  };

  // Ring-pressure rule, run inside Poll() against PerRingStats().
  void CheckTraceRings(const WatchdogConfig& config);

  mutable std::mutex mu_;
  WatchdogConfig config_;
  std::vector<Probe> probes_;
  std::map<SampleKey, PrevSample> prev_;
  // (kind, shard, event); event is interned ("" for rules that don't
  // know one), so the pointer is a stable identity.
  std::map<std::tuple<uint8_t, uint32_t, const char*>, uint64_t> counts_;
  uint64_t last_value_ = 0;
  bool burst_used_ = false;
  bool burst_active_ = false;
  uint64_t burst_polls_left_ = 0;
  // Sequence number of the Poll() pass a burst was latched under (or the
  // upcoming pass, for inline latches between polls). Only passes that
  // started after the latch count toward burst_polls_left_, so a burst
  // never retires in the same pass — or instant — that latched it.
  uint64_t poll_seq_ = 0;        // guarded by mu_
  uint64_t burst_latch_seq_ = 0;  // guarded by mu_
  TraceConfig burst_saved_;

  // Number of Poll() passes currently invoking probe callbacks (outside
  // mu_). UnregisterProbe waits on poll_cv_ for this to reach zero.
  int polls_in_flight_ = 0;  // guarded by mu_
  std::condition_variable poll_cv_;

  std::thread monitor_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  // guarded by mu_
};

// Inline hot-path hook: called with each measured dispatch duration.
// `event_slow_ns` is EventMetrics::slow_ns() (0 = use the absolute
// deadline). Disarmed cost: the armed() load already happened at the
// caller to decide whether to time at all, so this is a compare.
inline void CheckDispatch(const char* event_name, uint32_t shard, uint64_t ns,
                          uint64_t event_slow_ns) {
  if (!internal::g_watchdog_armed.load(std::memory_order_relaxed)) {
    return;
  }
  uint64_t limit = event_slow_ns != 0
                       ? event_slow_ns
                       : internal::g_slow_ns.load(std::memory_order_relaxed);
  if (limit != 0 && ns >= limit) {
    Watchdog::Global().Report(AnomalyKind::kSlowHandler, event_name, shard,
                              ns);
  }
}

// True when the dispatch path should measure durations for the watchdog
// even though tracing and profiling are off.
inline bool WatchdogWantsTiming() {
  return internal::g_watchdog_armed.load(std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace spin

#endif  // SRC_OBS_WATCHDOG_H_
