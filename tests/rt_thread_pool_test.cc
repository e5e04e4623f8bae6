#include "src/rt/thread_pool.h"

#include <atomic>

#include <gtest/gtest.h>

namespace spin {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.SubmitTo(i, [&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SpawnModeRunsDetached) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i) {
    pool.SubmitTo(i, [&] { count.fetch_add(1); }, AsyncMode::kSpawn);
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, DrainWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Drain();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.SubmitTo(0, [&] {
    for (int i = 0; i < 10; ++i) {
      pool.SubmitTo(i, [&] { count.fetch_add(1); });
    }
  });
  pool.Drain();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, DestructorDrains) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.SubmitTo(i, [&] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SubmitToAccountsAgainstThatQueue) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.queues(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.SubmitTo(2, [&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 64);
  // Wherever the tasks ran (pinned worker or thieves), they are accounted
  // against the queue they were submitted to.
  EXPECT_EQ(pool.executed(2), 64u);
  EXPECT_EQ(pool.queue_depth(2), 0u);
}

TEST(ThreadPoolTest, SubmitToWrapsQueueIndex) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.SubmitTo(7, [&] { count.fetch_add(1); });  // 7 % 2 == queue 1
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(pool.executed(1), 10u);
}

TEST(ThreadPoolTest, AllQueuesDrainWhenWorkIsPinnedToOne) {
  // Everything lands on queue 0; the other workers must steal from its
  // tail rather than idle, and every task still executes exactly once.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 200; ++i) {
    pool.SubmitTo(0, [&] {
      int now = concurrent.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      count.fetch_add(1);
      concurrent.fetch_sub(1);
    });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(pool.executed(0), 200u);
  uint64_t per_queue = 0;
  for (size_t q = 0; q < pool.queues(); ++q) {
    per_queue += pool.executed(q);
  }
  EXPECT_EQ(per_queue, pool.executed());
  // steals() is timing-dependent (worker 0 may drain everything on a
  // loaded machine), but it can never exceed what queue 0 held.
  EXPECT_LE(pool.steals(), 200u);
  EXPECT_EQ(pool.steals(), pool.steals(0));
}

}  // namespace
}  // namespace spin
