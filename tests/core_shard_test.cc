// Sharded dispatch state: every shard reads the event's one table (and its
// one compiled stub) under the dispatcher's one epoch domain, a raise counts
// on its source's shard, and async work drains through the source's own
// outbox queue. With shards=1 the dispatcher skips the source hash.
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/codegen/exec_memory.h"
#include "src/codegen/stub_compiler.h"
#include "src/core/dispatcher.h"
#include "src/core/shard.h"
#include "src/micro/program.h"
#include "src/obs/export.h"

namespace spin {
namespace {

// A source value that ShardFor maps to `shard` under `shards` shards.
uint64_t SourceOnShard(uint32_t shard, uint32_t shards) {
  for (uint64_t id = 1;; ++id) {
    uint64_t source = MakeRaiseSource(SourceKind::kStrand, id);
    if (ShardFor(source, shards) == shard) {
      return source;
    }
  }
}

std::atomic<uint64_t> g_fired{0};

int64_t AddOne(int64_t a) { return a + 1; }
int64_t AddTwo(int64_t a) { return a + 2; }
void CountFired(int64_t) {
  g_fired.fetch_add(1, std::memory_order_relaxed);
}

TEST(ShardTest, ShardCountResolution) {
  Dispatcher::Config config;
  config.shards = 4;
  Dispatcher four(config);
  EXPECT_EQ(four.shard_count(), 4u);

  config.shards = 0;  // auto: one per hardware thread, at least one
  Dispatcher automatic(config);
  EXPECT_GE(automatic.shard_count(), 1u);
  EXPECT_LE(automatic.shard_count(), Dispatcher::kMaxShards);

  config.shards = 100000;  // capped
  Dispatcher capped(config);
  EXPECT_EQ(capped.shard_count(), Dispatcher::kMaxShards);

  EXPECT_EQ(Dispatcher().shard_count(), 1u);  // default: historical layout
}

TEST(ShardTest, EverySourceSeesInstalledHandlers) {
  Module module("Shards");
  Dispatcher::Config config;
  config.shards = 4;
  // A single plain handler would take the intrinsic-bypass direct call and
  // never touch the table; disable it so every shard raises through it.
  config.allow_direct = false;
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t)> event("Shards.Add", &module, nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &AddOne, {.module = &module});

  // Raise once as a source pinned to each shard: each must see the
  // installed handler.
  for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
    RaiseSourceScope source(SourceOnShard(s, dispatcher.shard_count()));
    EXPECT_EQ(event.Raise(41), 42) << "shard " << s;
  }
  // Per-shard raise counters saw exactly one raise each.
  for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
    EXPECT_EQ(dispatcher.shard_raises(s), 1u) << "shard " << s;
  }
}

TEST(ShardTest, ReinstallIsSeenOnEveryShard) {
  Module module("Shards");
  Dispatcher::Config config;
  config.shards = 4;
  config.allow_direct = false;  // raise through the table
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t)> event("Shards.Swap", &module, nullptr, &dispatcher);
  auto one = dispatcher.InstallHandler(event, &AddOne, {.module = &module});

  dispatcher.Uninstall(one, &module);
  dispatcher.InstallHandler(event, &AddTwo, {.module = &module});
  for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
    RaiseSourceScope source(SourceOnShard(s, dispatcher.shard_count()));
    EXPECT_EQ(event.Raise(40), 42) << "shard " << s;
  }
}

TEST(ShardTest, StubSharedAcrossShards) {
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP() << "JIT unavailable";
  }
  Module module("Shards");
  Dispatcher::Config config;
  config.shards = 4;
  config.allow_direct = false;  // force a stub for the single handler
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t)> event("Shards.Stub", &module, nullptr, &dispatcher);
  Dispatcher::Stats before = dispatcher.stats();
  size_t mapped_before = codegen::CodeBuffer::TotalMappedBytes();
  dispatcher.InstallHandler(event, &AddOne, {.module = &module});
  // One compile, no copies: every shard raises through the one table's
  // stub, so the install maps exactly one stub's pages.
  Dispatcher::Stats after = dispatcher.stats();
  EXPECT_EQ(after.stub_compiles - before.stub_compiles, 1u);
  EXPECT_EQ(after.stub_replicas - before.stub_replicas, 0u);
  size_t install_mapped =
      codegen::CodeBuffer::TotalMappedBytes() - mapped_before;
  // The same routine compiled standalone: the size of one stub's mapping.
  codegen::StubSpec spec;
  spec.num_args = 1;
  spec.policy = ResultPolicy::kLast;
  spec.bindings.resize(1);
  spec.bindings[0].handler.fn = reinterpret_cast<void*>(&AddOne);
  size_t probe_before = codegen::CodeBuffer::TotalMappedBytes();
  std::unique_ptr<codegen::CompiledStub> probe = codegen::CompileStub(spec);
  ASSERT_NE(probe, nullptr);
  size_t one_stub = codegen::CodeBuffer::TotalMappedBytes() - probe_before;
  EXPECT_GT(one_stub, 0u);
  EXPECT_EQ(install_mapped, one_stub);
  for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
    RaiseSourceScope source(SourceOnShard(s, dispatcher.shard_count()));
    EXPECT_EQ(event.Raise(1), 2) << "shard " << s;
  }
}

TEST(ShardTest, AsyncOutboxRoutesToShardQueue) {
  Module module("Shards");
  ThreadPool pool(4);
  Dispatcher::Config config;
  config.shards = 4;
  config.pool = &pool;
  Dispatcher dispatcher(config);
  Event<void(int64_t)> event("Shards.Async", &module, nullptr, &dispatcher);
  g_fired = 0;
  dispatcher.InstallHandler(
      event, +[](int64_t) { g_fired.fetch_add(1, std::memory_order_relaxed); },
      {.async = true, .module = &module});

  const uint32_t shard = 2;
  uint64_t executed_before = pool.executed(shard);
  {
    RaiseSourceScope source(SourceOnShard(shard, dispatcher.shard_count()));
    for (int i = 0; i < 32; ++i) {
      event.Raise(i);
    }
  }
  pool.Drain();
  EXPECT_EQ(g_fired.load(), 32u);
  // Every async body was submitted to (and accounted against) the shard's
  // own outbox queue, wherever it ultimately ran.
  EXPECT_EQ(pool.executed(shard) - executed_before, 32u);
}

TEST(ShardTest, DetachedRaiseKeepsSourceShard) {
  Module module("Shards");
  ThreadPool pool(4);
  Dispatcher::Config config;
  config.shards = 4;
  config.pool = &pool;
  Dispatcher dispatcher(config);
  Event<void(int64_t)> event("Shards.Detached", &module, nullptr,
                             &dispatcher);
  g_fired = 0;
  dispatcher.InstallHandler(event, &CountFired, {.module = &module});
  const uint32_t shard = 1;
  uint64_t raises_before = dispatcher.shard_raises(shard);
  {
    RaiseSourceScope source(SourceOnShard(shard, dispatcher.shard_count()));
    for (int i = 0; i < 16; ++i) {
      event.RaiseAsync(i);
    }
  }
  pool.Drain();
  EXPECT_EQ(g_fired.load(), 16u);
  // The detached dispatch re-raised under the pinned source, so the raises
  // landed on the same shard the synchronous path would have used.
  EXPECT_EQ(dispatcher.shard_raises(shard) - raises_before, 16u);
}

struct SourceProbe {
  Event<void(int64_t)>* nested = nullptr;
  std::atomic<uint64_t> seen{0};
};

void ProbeSource(SourceProbe* probe, int64_t v) {
  probe->seen.store(CurrentRaiseSource(), std::memory_order_relaxed);
  probe->nested->Raise(v);
}

TEST(ShardTest, AsyncHandlerKeepsSourceShard) {
  Module module("Shards");
  ThreadPool pool(4);
  Dispatcher::Config config;
  config.shards = 4;
  config.pool = &pool;
  config.allow_direct = false;  // the nested raise must reach a shard
  Dispatcher dispatcher(config);
  Event<void(int64_t)> event("Shards.AsyncSource", &module, nullptr,
                             &dispatcher);
  Event<void(int64_t)> nested("Shards.Nested", &module, nullptr,
                              &dispatcher);
  SourceProbe probe;
  probe.nested = &nested;
  g_fired = 0;
  dispatcher.InstallHandler(nested, &CountFired, {.module = &module});
  dispatcher.InstallHandler(event, &ProbeSource, &probe,
                            {.async = true, .module = &module});
  const uint32_t shard = 3;
  const uint64_t source = SourceOnShard(shard, dispatcher.shard_count());
  uint64_t raises_before = dispatcher.shard_raises(shard);
  {
    RaiseSourceScope scope(source);
    event.Raise(1);
  }
  pool.Drain();
  EXPECT_EQ(probe.seen.load(), source)
      << "the async body runs under the raiser's pinned source";
  EXPECT_EQ(g_fired.load(), 1u);
  // The outer raise and the nested one both count on the source's shard.
  EXPECT_EQ(dispatcher.shard_raises(shard) - raises_before, 2u);
}

TEST(ShardTest, UnregisterAfterRaisesOnEveryShard) {
  Module module("Shards");
  Dispatcher::Config config;
  config.shards = 4;
  Dispatcher dispatcher(config);
  {
    Event<int64_t(int64_t)> event("Shards.Gone", &module, nullptr,
                                  &dispatcher);
    dispatcher.InstallHandler(event, &AddOne, {.module = &module});
    for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
      RaiseSourceScope source(SourceOnShard(s, dispatcher.shard_count()));
      EXPECT_EQ(event.Raise(0), 1);
    }
  }  // destruction frees the one table after draining the epoch domain
  dispatcher.epoch().Synchronize();  // and this must not deadlock after
}

std::atomic<bool> g_parked{false};
std::atomic<bool> g_unpark{false};

// Parks its raise, and so the raise's epoch guard, inside the binding's
// guard list until released; then passes.
bool ParkingGuard(int64_t) {
  g_parked.store(true, std::memory_order_release);
  while (!g_unpark.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

bool PassingGuard(int64_t) { return true; }

// A raise on shard 1 parks inside the first of a binding's two guards while
// the writer replaces that guard list and flushes the epoch domain. The
// raise is still walking the old list, so nothing retired while it is
// parked may be reclaimed. (Without the single domain, a shard-1 raise held
// only its shard's guard while guard lists retired elsewhere, and the list
// was freed under it.)
void ExpectParkedGuardListSurvives(bool async, bool jit) {
  Module module("ShardPark");
  ThreadPool pool(2);
  Dispatcher::Config config;
  config.shards = 4;
  config.enable_jit = jit;
  config.allow_direct = false;
  config.pool = &pool;
  Dispatcher dispatcher(config);
  Event<void(int64_t)> event("ShardPark.Event", &module, nullptr,
                             &dispatcher);
  g_fired = 0;
  auto binding = dispatcher.InstallHandler(event, &ParkingGuard, &CountFired,
                                           {.async = async,
                                            .module = &module});
  dispatcher.AddGuard(event, binding, &PassingGuard);
  EpochDomain& epoch = dispatcher.epoch();
  epoch.Synchronize();  // nothing retired before the park can be reclaimed

  g_parked = false;
  g_unpark = false;
  std::thread raiser([&] {
    RaiseSourceScope source(SourceOnShard(1, dispatcher.shard_count()));
    event.Raise(1);
  });
  while (!g_parked.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Not Synchronize: that would rightly wait for the parked raise.
  const uint64_t reclaimed = epoch.reclaimed_total();
  for (int i = 0; i < 4; ++i) {
    dispatcher.AddMicroGuard(binding,
                             micro::ReturnConst(1, 1, /*functional=*/true));
    epoch.Flush();
  }
  EXPECT_EQ(epoch.reclaimed_total() - reclaimed, 0u)
      << "retired state reclaimed under a parked raise";
  g_unpark.store(true, std::memory_order_release);
  raiser.join();
  pool.Drain();
  EXPECT_EQ(g_fired.load(), 1u);
}

TEST(ShardTest, ParkedRaiseKeepsGuardListAlive) {
  ExpectParkedGuardListSurvives(/*async=*/false, /*jit=*/false);
}

TEST(ShardTest, ParkedRaiseKeepsAsyncGuardListAlive) {
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP() << "JIT unavailable";
  }
  ExpectParkedGuardListSurvives(/*async=*/true, /*jit=*/true);
}

TEST(ShardTest, MetricsExportCarriesShardLabels) {
  Module module("Shards");
  Dispatcher::Config config;
  config.shards = 2;
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t)> event("Shards.Metrics", &module, nullptr,
                                &dispatcher);
  dispatcher.InstallHandler(event, &AddOne, {.module = &module});
  for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
    RaiseSourceScope source(SourceOnShard(s, dispatcher.shard_count()));
    event.Raise(0);
  }
  std::ostringstream os;
  obs::ExportMetrics(os);
  std::string text = os.str();
  EXPECT_NE(text.find("spin_dispatcher_shards"), std::string::npos);
  EXPECT_NE(text.find("spin_dispatcher_shard_raises_total"),
            std::string::npos);
  EXPECT_NE(text.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(text.find("shard=\"1\""), std::string::npos);
  // Aggregate series survive for dashboard continuity.
  EXPECT_NE(text.find("spin_pool_queue_depth{instance="), std::string::npos);
  EXPECT_NE(text.find("spin_pool_executed_total{instance="),
            std::string::npos);
}

}  // namespace
}  // namespace spin
