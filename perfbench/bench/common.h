// Shared pieces of the benchmark binary: seeded inputs, latency
// histograms, in-memory spans, the per-run result record and its JSON
// form. perfbench/run.py turns that record into the reported metrics.
#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spin {
class Dispatcher;
namespace obs {
struct PhaseStats;
}  // namespace obs
}  // namespace spin

namespace perfbench {

// Every dispatcher the benchmark builds has the fleet's shard count.
constexpr uint32_t kShards = 8;
// Traced runs sample one raise in this many (SetTracing({kSampled, N})).
constexpr uint32_t kTraceSampleRate = 64;
// Every always-true micro guard compares this word to 1.
extern uint64_t g_guard_word;

// splitmix64: every workload input derives from --seed through this.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Log-linear latency histogram: exact below 1024, then 128 sub-buckets per
// power of two (under 0.8% relative error). Single-writer; merge after the
// writers have joined.
class LatHist {
 public:
  LatHist();
  void Record(uint64_t value) { ++counts_[Index(value)]; }
  void Merge(const LatHist& other);
  uint64_t count() const;
  // Value at quantile q (nearest rank over bucket lower bounds).
  uint64_t Quantile(double q) const;
  // [[lower_bound, count], ...] for buckets with samples.
  std::string Json() const;

 private:
  static size_t Index(uint64_t value);
  static uint64_t LowerBound(size_t index);
  std::vector<uint64_t> counts_;
};

// A timed call into one layer, recorded from the benchmark's side of the
// call. Spans stay in per-thread buffers and are written out at the end.
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;   // 0 = root
  uint64_t request;  // spans of one operation share it
  uint32_t ops;      // operations covered (a batch of raises > 1)
};

class SpanBuffer {
 public:
  static constexpr size_t kCap = 200000;  // per buffer; extra spans dropped
  uint64_t NewId();
  void Add(const Span& span) {
    if (spans_.size() < kCap) spans_.push_back(span);
  }
  void Append(const SpanBuffer& other);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Opens a span on construction and records it on destruction; a null
// buffer makes it free (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t parent = 0,
             uint64_t request = 0, uint32_t ops = 1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  SpanBuffer* buffer_;
  Span span_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool mini = false;  // short run used to fill another workload's layer row
  bool one_setup = false;  // traced runs: set up once (set-up not reported)
  unsigned threads = 4;
};

struct Timing {
  LatHist hist;   // nanoseconds per recorded sample
  uint32_t per = 1;  // operations per sample (batched raises)
};

struct Result {
  std::vector<double> setup_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  uint64_t stub_compiles = 0;
  // Headline throughput: median over fixed intervals, with the count.
  double ops_per_s = 0;
  size_t ops_intervals = 0;
  // Shard of each caller thread's raise source, in spawn order.
  std::vector<uint32_t> caller_shards;
  std::map<std::string, Timing> timings;
  std::map<std::string, double> scalars;  // workload-specific end-to-end
  std::map<std::string, double> layer;    // per-layer metrics
  SpanBuffer spans;

  void Fail(const std::string& why);
};

// Median of a small sample (copies).
double Median(std::vector<double> values);
uint64_t NowNs();
// Peak resident set of this process so far.
double PeakRssMib();
// ns per call of an indirect call through a volatile function pointer.
double CalibIndirectCallNs();

// Tracing of a traced pass: a fresh flight recorder and phase stats, the
// dispatcher's sampled tracing on, and off again.
void ResetTraceState();
void StartTracing(spin::Dispatcher& d);
void StopTracing(spin::Dispatcher& d);
// Adds the sampled phase self-time totals (nonzero phases only) to the
// phase_self_ns.<phase> scalars, for the report.
void RecordPhaseTotals(const std::vector<spin::obs::PhaseStats>& stats,
                       Result* result);

// Workloads (each fills `result`; traced runs also record spans and the
// layer metrics they own).
void RunRaise(const Options& options, Result* result);
void RunChurn(const Options& options, Result* result);
void RunAsync(const Options& options, Result* result);
void RunFleet(const Options& options, Result* result);
// Direct probes of the code generator (traced runs of every workload).
void RunCodegenProbes(Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
