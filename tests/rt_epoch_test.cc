// Tests for epoch-based reclamation: the mechanism behind the paper's
// atomic handler-list replacement (§3). Every test runs on the process's one
// domain, so each drains it first and asserts on its own objects only.
#include "src/rt/epoch.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"

namespace spin {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>& counter) : counter(counter) {
    counter.fetch_add(1);
  }
  ~Tracked() { counter.fetch_sub(1); }
  std::atomic<int>& counter;
};

void DeleteTracked(void* p) { delete static_cast<Tracked*>(p); }

// The global domain with nothing left retired from earlier tests.
EpochDomain& DrainedDomain() {
  EpochDomain& domain = EpochDomain::Global();
  domain.Synchronize();
  return domain;
}

TEST(EpochTest, RetireEventuallyFrees) {
  EpochDomain& domain = DrainedDomain();
  const uint64_t reclaimed = domain.reclaimed_total();
  std::atomic<int> live{0};
  domain.Retire(new Tracked(live), DeleteTracked);
  EXPECT_EQ(live.load(), 1);
  EXPECT_EQ(domain.retired_count(), 1u);
  domain.Synchronize();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(domain.reclaimed_total() - reclaimed, 1u);
}

TEST(EpochTest, GuardBlocksReclamation) {
  EpochDomain& domain = DrainedDomain();
  std::atomic<int> live{0};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};

  std::thread reader([&] {
    EpochDomain::Guard guard(domain);
    entered.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!entered.load()) {
    std::this_thread::yield();
  }

  const uint64_t reclaimed = domain.reclaimed_total();
  domain.Retire(new Tracked(live), DeleteTracked);
  // The reader pins its entry epoch; Flush cannot advance past it twice.
  for (int i = 0; i < 10; ++i) {
    domain.Flush();
  }
  EXPECT_EQ(live.load(), 1) << "object freed while a guard was active";
  EXPECT_EQ(domain.reclaimed_total(), reclaimed);

  release.store(true);
  reader.join();
  domain.Synchronize();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, NestedGuards) {
  EpochDomain& domain = DrainedDomain();
  std::atomic<int> live{0};
  {
    EpochDomain::Guard outer(domain);
    {
      EpochDomain::Guard inner(domain);
    }
    // Still inside the outer guard: retire from another thread and verify
    // the object survives (inner guard exit must not unpin the epoch).
    std::thread writer(
        [&] { domain.Retire(new Tracked(live), DeleteTracked); });
    writer.join();
    std::thread flusher([&] {
      for (int i = 0; i < 10; ++i) {
        domain.Flush();
      }
    });
    flusher.join();
    EXPECT_EQ(live.load(), 1);
  }
  domain.Synchronize();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, ManyRetiresTriggerAutomaticFlush) {
  EpochDomain& domain = DrainedDomain();
  const uint64_t reclaimed = domain.reclaimed_total();
  std::atomic<int> live{0};
  for (int i = 0; i < 1000; ++i) {
    domain.Retire(new Tracked(live), DeleteTracked);
  }
  // The automatic flush threshold must keep the backlog bounded when no
  // readers are active.
  EXPECT_LT(domain.retired_count(), 200u);
  EXPECT_GT(domain.reclaimed_total() - reclaimed, 800u);
  domain.Synchronize();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(domain.reclaimed_total() - reclaimed, 1000u);
}

// Stress: concurrent readers dereference a shared pointer that writers
// continuously replace and retire. Any use-after-free crashes or corrupts
// the sentinel.
TEST(EpochTest, ConcurrentReadersAndWriters) {
  EpochDomain& domain = DrainedDomain();
  struct Node {
    uint64_t sentinel;
  };
  std::atomic<Node*> current{new Node{0xabcdef12345678ull}};
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};

  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochDomain::Guard guard(domain);
        Node* node = current.load(std::memory_order_acquire);
        if (node->sentinel != 0xabcdef12345678ull) {
          bad.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      Node* fresh = new Node{0xabcdef12345678ull};
      Node* old = current.exchange(fresh, std::memory_order_acq_rel);
      // Poison, then retire: a reader holding `old` across reclamation
      // would observe the poisoned sentinel or crash.
      domain.Retire(old, +[](void* p) {
        static_cast<Node*>(p)->sentinel = 0xdeadull;
        delete static_cast<Node*>(p);
      });
    }
  });
  writer.join();
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  domain.Synchronize();
  delete current.load();
}

std::atomic<int> g_spawned_raises{0};
void CountRaise(int64_t) { g_spawned_raises.fetch_add(1); }

// A thread's record is released when the thread exits and reused by the next
// thread that needs one, so the list every epoch advance walks is bounded by
// the peak number of live threads, not by every thread ever seen. Raw threads
// are joined, so at most kBatch of them are alive at once. kSpawn raises run
// each on a fresh detached thread that exits just after Drain() sees its task
// finish, so a few may overlap the next batch: kSpawnSlack allows for them.
TEST(EpochTest, ExitedThreadsReleaseTheirRecords) {
  constexpr int kThreads = 2000;
  constexpr int kBatch = 4;
  constexpr size_t kSpawnSlack = 32;
  g_spawned_raises.store(0);
  EpochDomain& domain = DrainedDomain();
  { EpochDomain::Guard guard(domain); }  // this thread's record
  const size_t before = domain.record_count();

  for (int i = 0; i < kThreads; i += kBatch) {
    std::vector<std::thread> batch;
    for (int j = 0; j < kBatch; ++j) {
      batch.emplace_back([&] { EpochDomain::Guard guard(domain); });
    }
    for (std::thread& t : batch) {
      t.join();
    }
  }
  EXPECT_LE(domain.record_count(), before + kBatch);

  Module module("EpochTest");
  Dispatcher::Config config;
  config.async_mode = AsyncMode::kSpawn;
  Dispatcher dispatcher(config);
  Event<void(int64_t)> event("EpochTest.Spawn", &module, nullptr,
                             &dispatcher);
  dispatcher.InstallHandler(event, &CountRaise, {.module = &module});
  for (int i = 0; i < kThreads; i += kBatch) {
    for (int j = 0; j < kBatch; ++j) {
      event.RaiseAsync(i + j);
    }
    dispatcher.pool().Drain();
  }
  EXPECT_EQ(g_spawned_raises.load(), kThreads);
  EXPECT_LE(domain.record_count(), before + kBatch + kSpawnSlack);
}

std::atomic<bool> g_teardown_entered{false};
std::atomic<bool> g_teardown_release{false};

void GuardAtTeardown(void*) {
  EpochDomain::Guard guard(EpochDomain::Global());
  g_teardown_entered.store(true);
  while (!g_teardown_release.load()) {
    std::this_thread::yield();
  }
}

// A guard taken by an exit-time destructor that runs after the domain's own
// exit hook registers a fresh record: it still pins the epoch, and the hook
// then releases that record too. glibc runs key destructors in key order,
// so this test's key, created after the domain's, runs second; and it
// reruns the domain's destructor once the guard has set its key again.
TEST(EpochTest, GuardAfterExitHookRegistersAFreshRecord) {
  g_teardown_entered.store(false);
  g_teardown_release.store(false);
  EpochDomain& domain = DrainedDomain();
  { EpochDomain::Guard guard(domain); }
  const size_t before = domain.record_count();
  pthread_key_t key;
  ASSERT_EQ(pthread_key_create(&key, &GuardAtTeardown), 0);
  auto exiting_thread = [&] {
    { EpochDomain::Guard guard(domain); }
    pthread_setspecific(key, &domain);
  };

  std::atomic<int> live{0};
  std::thread parked(exiting_thread);
  while (!g_teardown_entered.load()) {
    std::this_thread::yield();
  }
  domain.Retire(new Tracked(live), DeleteTracked);
  for (int i = 0; i < 10; ++i) {
    domain.Flush();
  }
  EXPECT_EQ(live.load(), 1) << "freed under a guard taken at thread exit";
  g_teardown_release.store(true);
  parked.join();

  for (int i = 0; i < 100; ++i) {
    std::thread(exiting_thread).join();
  }
  EXPECT_LE(domain.record_count(), before + 1);
  domain.Synchronize();  // every record is idle again: must not spin
  EXPECT_EQ(live.load(), 0);
  pthread_key_delete(key);
}

}  // namespace
}  // namespace spin
