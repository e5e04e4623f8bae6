// Shard-hash distribution ("RSS for events"): ShardFor must spread every
// realistic source population near-uniformly, or one shard's outbox queue
// becomes the single hot queue sharding exists to avoid. The chi-squared
// bounds are deterministic — the source populations are synthetic and
// seeded — so a skewed mixer fails loudly, not flakily.
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/shard.h"

namespace spin {
namespace {

// Pearson's chi-squared statistic against the uniform expectation.
double ChiSquared(const std::vector<uint64_t>& counts, uint64_t total) {
  double expected = static_cast<double>(total) / counts.size();
  double chi2 = 0.0;
  for (uint64_t c : counts) {
    double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

// 16 shards => 15 degrees of freedom; the p=0.001 critical value is 37.7.
// 60 leaves comfortable slack while still catching any structural skew
// (a broken mixer lands in the thousands).
constexpr uint32_t kShards = 16;
constexpr double kChi2Bound = 60.0;
constexpr uint64_t kSamples = 64 * 1024;

TEST(ShardHashTest, SequentialStrandIdsSpreadUniformly) {
  std::vector<uint64_t> counts(kShards, 0);
  for (uint64_t id = 0; id < kSamples; ++id) {
    ++counts[ShardFor(MakeRaiseSource(SourceKind::kStrand, id), kShards)];
  }
  EXPECT_LT(ChiSquared(counts, kSamples), kChi2Bound);
}

TEST(ShardHashTest, StridedSourcesSpreadUniformly) {
  // Dense id spaces rarely stay dense: connection tokens arrive in strides
  // (per-port, per-host allocation patterns). Power-of-two strides are the
  // classic killer of weak mixers.
  for (uint64_t stride : {2ull, 8ull, 64ull, 4096ull, 1ull << 20}) {
    std::vector<uint64_t> counts(kShards, 0);
    for (uint64_t i = 0; i < kSamples; ++i) {
      ++counts[ShardFor(
          MakeRaiseSource(SourceKind::kConnection, i * stride), kShards)];
    }
    EXPECT_LT(ChiSquared(counts, kSamples), kChi2Bound)
        << "stride " << stride;
  }
}

TEST(ShardHashTest, SeededSplitmixSourcesSpreadUniformly) {
  // A synthetic 64k-source population drawn from a seeded splitmix64
  // stream, standing in for "arbitrary" identities (host addresses mixed
  // with tokens). Seed fixed: the test is reproducible bit-for-bit.
  uint64_t state = 0x5350494e16ull;  // seed
  std::vector<uint64_t> counts(kShards, 0);
  for (uint64_t i = 0; i < kSamples; ++i) {
    state += 0x9e3779b97f4a7c15ull;
    ++counts[ShardFor(state, kShards)];
  }
  EXPECT_LT(ChiSquared(counts, kSamples), kChi2Bound);
}

TEST(ShardHashTest, KindTagSeparatesIdSpaces) {
  // The same numeric id under different kinds must be a different source —
  // strand 7 and connection 7 should not be pinned to the same shard by
  // construction (they usually differ; what must hold is the value differs).
  EXPECT_NE(MakeRaiseSource(SourceKind::kStrand, 7),
            MakeRaiseSource(SourceKind::kConnection, 7));
  EXPECT_NE(MakeRaiseSource(SourceKind::kThread, 1),
            MakeRaiseSource(SourceKind::kHost, 1));
}

TEST(ShardHashTest, ShardForStaysInRange) {
  for (uint32_t shards : {1u, 2u, 3u, 5u, 16u, 64u}) {
    for (uint64_t id = 0; id < 4096; ++id) {
      uint32_t s = ShardFor(MakeRaiseSource(SourceKind::kHost, id), shards);
      ASSERT_LT(s, shards);
    }
    // Every shard is reachable.
    std::vector<bool> hit(shards, false);
    for (uint64_t id = 0; id < 64 * shards; ++id) {
      hit[ShardFor(MakeRaiseSource(SourceKind::kHost, id), shards)] = true;
    }
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_TRUE(hit[s]) << "shard " << s << " of " << shards;
    }
  }
}

TEST(ShardHashTest, RaiseSourceScopeNestsAndRestores) {
  uint64_t fallback = CurrentRaiseSource();
  EXPECT_NE(fallback, 0u);  // thread fallback is always a real source
  EXPECT_EQ(CurrentRaiseSource(), fallback);  // and stable
  {
    RaiseSourceScope outer(MakeRaiseSource(SourceKind::kStrand, 1));
    EXPECT_EQ(CurrentRaiseSource(),
              MakeRaiseSource(SourceKind::kStrand, 1));
    {
      RaiseSourceScope inner(MakeRaiseSource(SourceKind::kConnection, 9));
      EXPECT_EQ(CurrentRaiseSource(),
                MakeRaiseSource(SourceKind::kConnection, 9));
    }
    EXPECT_EQ(CurrentRaiseSource(),
              MakeRaiseSource(SourceKind::kStrand, 1));
    {
      RaiseSourceScope cleared(0);  // explicit reset to the fallback
      EXPECT_EQ(CurrentRaiseSource(), fallback);
    }
  }
  EXPECT_EQ(CurrentRaiseSource(), fallback);
}

TEST(ShardHashTest, ThreadFallbackDiffersAcrossThreads) {
  uint64_t here = CurrentRaiseSource();
  uint64_t there = 0;
  std::thread t([&] { there = CurrentRaiseSource(); });
  t.join();
  EXPECT_NE(here, there);
}

}  // namespace
}  // namespace spin
