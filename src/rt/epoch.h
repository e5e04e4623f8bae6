// Epoch-based reclamation (EBR).
//
// The paper replaces an event's handler list "atomically with respect to event
// dispatch by using a single memory access to replace the old list with the
// new one" (§3). In SPIN the old list could be leaked or reclaimed lazily; in
// a long-running C++ library we must actually free retired dispatch tables and
// generated code, but only after every in-flight raise that might still be
// reading them has finished. Classic three-epoch EBR provides exactly that:
// raises are wrapped in an EpochDomain::Guard; installs retire the old table
// and it is freed two epoch advances later.
//
// Readers (raises) pay two uncontended thread-local atomic stores and one
// fence; writers (installs) pay a mutex, which matches the paper's model of
// rare reconfiguration and frequent dispatch.
//
// There is one domain, Global(), and every dispatcher reclaims through it.
// Each live thread owns one record in it, found through a thread-local
// pointer. A thread claims its record on its first guard, reusing one that
// an exited thread released or else allocating one, and releases it at
// thread exit. The record list that every epoch advance walks is therefore
// bounded by the peak number of live threads, not by every thread ever
// seen. Records are never freed, so the walk needs no lock.
#ifndef SRC_RT_EPOCH_H_
#define SRC_RT_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/rt/spinlock.h"

namespace spin {

class EpochDomain {
 public:
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // The process's one domain, shared by all dispatchers.
  static EpochDomain& Global();

  // RAII critical-section token. Nestable: inner guards piggyback on the
  // outermost one (a handler may itself raise events).
  class Guard {
   public:
    explicit Guard(EpochDomain& domain);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
  };

  // Schedules `p` to be destroyed with `deleter` once no critical section
  // that could observe it remains. Thread-safe.
  void Retire(void* p, void (*deleter)(void*));

  // Tries to advance the epoch and reclaim; returns objects freed. Called
  // automatically from Retire past a threshold; exposed for tests and for
  // the dispatcher's quiescent points.
  size_t Flush();

  // Blocks (spinning) until everything retired before the call is freed.
  // Requires that no raise currently on *this thread* holds a guard.
  void Synchronize();

  // Diagnostics.
  size_t retired_count() const;
  // Thread records in the list each epoch advance walks: at most the peak
  // number of threads that held one at once. Not exported as a metric.
  size_t record_count() const;
  uint64_t epoch() const { return global_epoch_.load(std::memory_order_relaxed); }
  // Objects freed over the domain's lifetime. With retired_count(), exposes
  // reclamation lag to the metric exporter.
  uint64_t reclaimed_total() const {
    return reclaimed_total_.load(std::memory_order_relaxed);
  }

 private:
  struct ThreadRecord {
    std::atomic<uint64_t> epoch{kIdle};
    std::atomic<bool> in_use{false};
    uint32_t nesting = 0;  // accessed only by the owning thread
    ThreadRecord* next = nullptr;
  };

  struct Retired {
    void* ptr;
    void (*deleter)(void*);
  };

  static constexpr uint64_t kIdle = ~0ull;
  static constexpr size_t kFlushThreshold = 64;

  // The calling thread's record, or null before its first guard and after
  // its exit hook has run.
  static thread_local ThreadRecord* t_record_;

  EpochDomain();
  ~EpochDomain() = default;

  // A thread's first guard: claims a released record or allocates one, and
  // arms the thread-exit hook that releases it.
  ThreadRecord* Register();
  static void Release(void* record);
  // Returns true if the epoch advanced. Caller holds retire_lock_.
  bool TryAdvanceLocked();
  size_t ReclaimLocked();

  std::atomic<ThreadRecord*> records_{nullptr};
  std::atomic<uint64_t> global_epoch_{0};
  mutable Spinlock retire_lock_;
  std::vector<Retired> retired_[3];
  std::atomic<size_t> retired_total_{0};
  std::atomic<uint64_t> reclaimed_total_{0};
};

}  // namespace spin

#endif  // SRC_RT_EPOCH_H_
