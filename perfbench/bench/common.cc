#include "perfbench/bench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/core/dispatcher.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

constexpr size_t kExact = 1024;  // values below this get their own bucket
constexpr size_t kSubBits = 7;   // 128 sub-buckets per power of two
constexpr size_t kBuckets = kExact + (64 - 10) * (1u << kSubBits);

std::atomic<uint64_t> g_next_span_id{1};

}  // namespace

uint64_t g_guard_word = 1;

LatHist::LatHist() : counts_(kBuckets, 0) {}

size_t LatHist::Index(uint64_t value) {
  if (value < kExact) return static_cast<size_t>(value);
  size_t exp = static_cast<size_t>(std::bit_width(value)) - 1;  // >= 10
  size_t sub = static_cast<size_t>(value >> (exp - kSubBits)) &
               ((1u << kSubBits) - 1);
  return kExact + (exp - 10) * (1u << kSubBits) + sub;
}

uint64_t LatHist::LowerBound(size_t index) {
  if (index < kExact) return index;
  size_t exp = (index - kExact) / (1u << kSubBits) + 10;
  uint64_t sub = (index - kExact) % (1u << kSubBits);
  return ((1ull << kSubBits) + sub) << (exp - kSubBits);
}

void LatHist::Merge(const LatHist& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

uint64_t LatHist::count() const {
  uint64_t n = 0;
  for (uint64_t c : counts_) n += c;
  return n;
}

uint64_t LatHist::Quantile(double q) const {
  uint64_t n = count();
  if (n == 0) return 0;
  // Nearest rank, as perfbench/harness.py computes it.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return LowerBound(i);
  }
  return LowerBound(counts_.size() - 1);
}

std::string LatHist::Json() const {
  std::string out = "[";
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    char pair[48];
    std::snprintf(pair, sizeof(pair), "%s[%llu,%llu]", out.size() > 1 ? "," : "",
                  static_cast<unsigned long long>(LowerBound(i)),
                  static_cast<unsigned long long>(counts_[i]));
    out += pair;
  }
  return out + "]";
}

uint64_t SpanBuffer::NewId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void SpanBuffer::Append(const SpanBuffer& other) {
  for (const Span& s : other.spans_) Add(s);
}

ScopedSpan::ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t parent,
                       uint64_t request, uint32_t ops)
    : buffer_(buffer), span_{name, 0, 0, 0, parent, request, ops} {
  if (buffer_ != nullptr) {
    span_.id = buffer_->NewId();
    span_.start_ns = NowNs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ != nullptr) {
    span_.end_ns = NowNs();
    buffer_->Add(span_);
  }
}

void Result::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ResetTraceState() {
  spin::obs::FlightRecorder::Global().Reset();
  spin::obs::ResetPhaseStats();
}

void StartTracing(spin::Dispatcher& d) {
  d.SetTracing({spin::obs::TraceMode::kSampled, kTraceSampleRate});
}

void StopTracing(spin::Dispatcher& d) {
  d.SetTracing({spin::obs::TraceMode::kOff, 1});
}

void RecordPhaseTotals(const std::vector<spin::obs::PhaseStats>& stats,
                       Result* result) {
  for (const spin::obs::PhaseStats& s : stats) {
    for (size_t p = 0; p < spin::obs::kNumPhases; ++p) {
      if (s.phases[p].count == 0) continue;
      result->scalars[std::string("phase_self_ns.") +
                      spin::obs::PhaseName(static_cast<spin::obs::Phase>(p))] +=
          static_cast<double>(s.phases[p].sum);
    }
  }
}

namespace {
uint64_t CalibTarget(uint64_t x) { return x + 1; }
}  // namespace

double CalibIndirectCallNs() {
  uint64_t (*volatile fn)(uint64_t) = &CalibTarget;
  constexpr int kCalls = 2'000'000;
  std::vector<double> samples;
  uint64_t acc = 0;
  for (int r = 0; r < 7; ++r) {
    uint64_t start = NowNs();
    for (int i = 0; i < kCalls; ++i) acc = fn(acc);
    samples.push_back(static_cast<double>(NowNs() - start) / kCalls);
  }
  if (acc == 0) samples.push_back(0);  // keeps the loop observable
  return Median(samples);
}

}  // namespace perfbench
