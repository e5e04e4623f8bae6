// Sharded dispatch state: installs publish a replica to every shard (all
// sharing the table's one compiled stub), raises read only their source's
// shard, and async work drains through the source's own outbox queue. With shards=1 the dispatcher must
// behave exactly like the historical single-replica one.
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/codegen/exec_memory.h"
#include "src/codegen/stub_compiler.h"
#include "src/core/dispatcher.h"
#include "src/core/shard.h"
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
  // never touch the tables; disable it so raises exercise the replicas.
  config.allow_direct = false;
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t)> event("Shards.Add", &module, nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &AddOne, {.module = &module});

  // Raise once as a source pinned to each shard: every replica must carry
  // the installed handler.
  for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
    RaiseSourceScope source(SourceOnShard(s, dispatcher.shard_count()));
    EXPECT_EQ(event.Raise(41), 42) << "shard " << s;
  }
  // Per-shard raise counters saw exactly one raise each.
  for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
    EXPECT_EQ(dispatcher.shard_raises(s), 1u) << "shard " << s;
  }
}

TEST(ShardTest, ReinstallRepublishesEveryReplica) {
  Module module("Shards");
  Dispatcher::Config config;
  config.shards = 4;
  config.allow_direct = false;  // raise through the table replicas
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
  // One compile, no copies: every shard's replica shares the stub, so the
  // install maps exactly one stub's pages.
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

TEST(ShardTest, UnregisterSynchronizesEveryShard) {
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
  }  // destruction reclaims all four replicas through their shard domains
  dispatcher.SynchronizeAllShards();  // and this must not deadlock after
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
