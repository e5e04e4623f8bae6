// Raise-source identity and the shard hash ("RSS for events").
//
// A sharded dispatcher spreads its async outbox work over N pool queues
// the way a multi-queue NIC spreads one logical ring: traffic is spread by
// hashing a flow identity, so one source's work stays on one queue. The
// dispatch table itself is not sharded: every shard reads the event's one
// table. Our flow identity is the *raise source* — who is raising, not
// what is raised:
//
//   - a kernel strand (the scheduler scopes Strand.Run and everything the
//     quantum raises to the strand id),
//   - a remote connection (the exporter scopes inbound dispatch to the
//     capability token of the binding it arrived on),
//   - a simulated host, or any other identity a subsystem wants to pin,
//   - falling back to a per-thread id, so plain multi-threaded raisers
//     spread across shards with no annotation at all.
//
// The current source is a thread-local; RaiseSourceScope sets and restores
// it RAII-style and nests (an inner scope shadows the outer one). Source 0
// means "unset" and selects the thread fallback.
//
// ShardFor() finalizes the source with the splitmix64 mixer and maps the
// high 32 bits onto [0, shards) with a multiply-shift (no divide on the
// raise path). The seeded chi-squared distribution test in
// tests/core_shard_hash_test.cc fails loudly if this ever skews.
#ifndef SRC_CORE_SHARD_H_
#define SRC_CORE_SHARD_H_

#include <atomic>
#include <cstdint>

namespace spin {

// Tag space for raise sources, so distinct id spaces (strand ids, tokens,
// host ids, thread ids) cannot collide into the same source value.
enum class SourceKind : uint8_t {
  kThread = 1,      // fallback: the raising thread
  kStrand = 2,      // kernel strand id
  kConnection = 3,  // remote binding (capability token)
  kHost = 4,        // simulated host
};

// Builds a nonzero source value from a kind tag and an id.
inline uint64_t MakeRaiseSource(SourceKind kind, uint64_t id) {
  return (static_cast<uint64_t>(kind) << 56) | (id & 0x00ffffffffffffffull);
}

namespace shard_internal {

inline thread_local uint64_t g_raise_source = 0;

inline uint64_t ThreadSourceSlow() {
  static std::atomic<uint64_t> next{1};
  return MakeRaiseSource(SourceKind::kThread,
                         next.fetch_add(1, std::memory_order_relaxed));
}

inline uint64_t ThreadSource() {
  thread_local uint64_t id = ThreadSourceSlow();
  return id;
}

}  // namespace shard_internal

// The identity the dispatcher hashes to pick a shard: the innermost
// RaiseSourceScope, or a stable per-thread id when none is active.
inline uint64_t CurrentRaiseSource() {
  uint64_t src = shard_internal::g_raise_source;
  return src != 0 ? src : shard_internal::ThreadSource();
}

// Pins the raise source for the current thread's dynamic extent. Passing 0
// clears any outer scope (restoring the per-thread fallback).
class RaiseSourceScope {
 public:
  explicit RaiseSourceScope(uint64_t source)
      : saved_(shard_internal::g_raise_source) {
    shard_internal::g_raise_source = source;
  }
  ~RaiseSourceScope() { shard_internal::g_raise_source = saved_; }
  RaiseSourceScope(const RaiseSourceScope&) = delete;
  RaiseSourceScope& operator=(const RaiseSourceScope&) = delete;

 private:
  uint64_t saved_;
};

// splitmix64 finalizer: full-avalanche mix so dense id spaces (strand 1, 2,
// 3, ...) spread uniformly.
inline uint64_t ShardMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Maps a source onto [0, shards) via multiply-shift on the mixed high bits.
inline uint32_t ShardFor(uint64_t source, uint32_t shards) {
  uint64_t h = ShardMix(source) >> 32;
  return static_cast<uint32_t>((h * shards) >> 32);
}

}  // namespace spin

#endif  // SRC_CORE_SHARD_H_
