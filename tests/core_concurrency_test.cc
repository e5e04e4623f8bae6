// Concurrency: raises proceed lock-free while handlers are installed and
// removed; the atomic table swap plus EBR must never expose a torn or freed
// table (§3: "handler lists are updated atomically with respect to event
// dispatch").
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/codegen/stub_compiler.h"
#include "src/core/dispatcher.h"
#include "src/core/shard.h"
#include "src/micro/program.h"

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

std::atomic<uint64_t> g_sum{0};

int64_t CountingHandler(int64_t a, int64_t) {
  g_sum.fetch_add(static_cast<uint64_t>(a), std::memory_order_relaxed);
  return a;
}
int64_t AnchorHandler(int64_t a, int64_t) { return a; }
bool TrueGuard(int64_t, int64_t) { return true; }

TEST(ConcurrencyTest, RaisesDuringInstallUninstallChurn) {
  Module module("Churn");
  Dispatcher dispatcher;
  Event<int64_t(int64_t, int64_t)> event("Churn.Event", &module, nullptr,
                                         &dispatcher);
  // An anchor handler guarantees raises never see an empty table.
  dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> raises{0};
  g_sum = 0;

  std::vector<std::thread> raisers;
  for (int t = 0; t < 4; ++t) {
    raisers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t r = event.Raise(1, 2);
        ASSERT_EQ(r, 1);
        raises.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread churner([&] {
    for (int i = 0; i < 2000; ++i) {
      auto binding = dispatcher.InstallHandler(event, &TrueGuard,
                                               &CountingHandler,
                                               {.module = &module});
      dispatcher.Uninstall(binding, &module);
    }
  });

  churner.join();
  stop.store(true);
  for (std::thread& t : raisers) {
    t.join();
  }
  EXPECT_GT(raises.load(), 0u);
  dispatcher.epoch().Synchronize();
}

TEST(ConcurrencyTest, GuardImpositionDuringRaises) {
  Module module("GuardChurn");
  Dispatcher dispatcher;
  Event<int64_t(int64_t, int64_t)> event("Churn.Guarded", &module, nullptr,
                                         &dispatcher);
  dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});
  auto target = dispatcher.InstallHandler(event, &CountingHandler,
                                          {.module = &module});

  std::atomic<bool> stop{false};
  std::vector<std::thread> raisers;
  for (int t = 0; t < 4; ++t) {
    raisers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)event.Raise(1, 2);
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    dispatcher.AddGuard(event, target, &TrueGuard);
    // Rebuild a fresh guard list each round (dropping to one guard).
    dispatcher.AddMicroGuard(target, micro::ReturnConst(2, 1, true));
  }
  stop.store(true);
  for (std::thread& t : raisers) {
    t.join();
  }
  dispatcher.epoch().Synchronize();
}

TEST(ConcurrencyTest, ConcurrentRaisesOnManyEvents) {
  Module module("Many");
  Dispatcher dispatcher;
  constexpr int kEvents = 16;
  std::vector<std::unique_ptr<Event<int64_t(int64_t, int64_t)>>> events;
  for (int i = 0; i < kEvents; ++i) {
    events.push_back(std::make_unique<Event<int64_t(int64_t, int64_t)>>(
        "Many.E" + std::to_string(i), &module, &AnchorHandler, &dispatcher));
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20000; ++i) {
        int64_t r = events[(t + i) % kEvents]->Raise(i, 0);
        if (r != i) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, RaiseInsideHandlerNests) {
  // Handlers may raise events themselves; epoch guards must nest.
  Module module("Nest");
  Dispatcher dispatcher;
  Event<int64_t(int64_t, int64_t)> inner("Nest.Inner", &module,
                                         &AnchorHandler, &dispatcher);
  Event<int64_t(int64_t, int64_t)> outer("Nest.Outer", &module, nullptr,
                                         &dispatcher);
  static Event<int64_t(int64_t, int64_t)>* inner_ptr = nullptr;
  inner_ptr = &inner;
  dispatcher.InstallLambda(
      outer, [](int64_t a, int64_t b) { return inner_ptr->Raise(a, b) + 1; },
      {.module = &module});
  EXPECT_EQ(outer.Raise(41, 0), 42);
}

TEST(ConcurrencyTest, InstallWhileRaisingAcrossShards) {
  // The sharded variant of the churn test: one raiser pinned to each shard
  // reads that shard's table replica while installs republish all of them.
  // Every churn cycle installs micro handlers, so (with the JIT) it compiles
  // a stub that all replicas share and retires it through four epoch
  // domains. No raise may ever see a torn replica, a missing anchor, or a
  // freed table or stub on any shard.
  Module module("ShardChurn");
  Dispatcher::Config config;
  config.shards = 4;
  config.allow_direct = false;  // keep raises on the replica path
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t, int64_t)> event("ShardChurn.Event", &module,
                                         nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> raises{0};
  std::vector<std::thread> raisers;
  for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
    raisers.emplace_back([&, s] {
      RaiseSourceScope source(SourceOnShard(s, dispatcher.shard_count()));
      do {  // at least one raise per shard, however the threads schedule
        int64_t r = event.Raise(1, 2);
        ASSERT_EQ(r, 1);
        raises.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  uint64_t compiles_before = dispatcher.stats().stub_compiles;
  std::thread churner([&] {
    for (int i = 0; i < 1000; ++i) {
      // Returns 1, the anchor's result for these arguments, so the kLast
      // fold reads 1 whichever table a raise sees.
      auto binding = dispatcher.InstallMicroHandler(
          event, micro::ReturnConst(2, 1, /*functional=*/false),
          {.module = &module});
      dispatcher.AddMicroGuard(binding,
                               micro::ReturnConst(2, 1, /*functional=*/true));
      dispatcher.Uninstall(binding, &module);
    }
  });
  churner.join();
  stop.store(true);
  for (std::thread& t : raisers) {
    t.join();
  }
  EXPECT_GT(raises.load(), 0u);
  if (codegen::CodegenAvailable()) {
    // Install, guard and uninstall each rebuild with a compile.
    EXPECT_EQ(dispatcher.stats().stub_compiles - compiles_before, 3000u);
  }
  // Every raise was routed somewhere, and every shard carried raises.
  uint64_t routed = 0;
  for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
    EXPECT_GT(dispatcher.shard_raises(s), 0u) << "shard " << s;
    routed += dispatcher.shard_raises(s);
  }
  EXPECT_EQ(routed, raises.load());
  dispatcher.SynchronizeAllShards();
}

TEST(ConcurrencyTest, LazyPromotionRacesRaisesOnOtherShards) {
  // lazy_compile defers stub generation until an event proves hot; the
  // promotion rebuild republishes every shard's replica while raises on
  // *other* shards keep reading theirs. Exactly one promotion may win, and
  // no raise may misdispatch across the interpreted->compiled flip.
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP() << "lazy promotion needs the JIT";
  }
  Module module("ShardLazy");
  Dispatcher::Config config;
  config.shards = 4;
  config.allow_direct = false;
  config.lazy_compile = true;
  config.lazy_promote_raises = 64;
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t, int64_t)> event("ShardLazy.Event", &module,
                                         nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});

  std::vector<std::thread> raisers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    raisers.emplace_back([&, t] {
      RaiseSourceScope source(
          MakeRaiseSource(SourceKind::kStrand, static_cast<uint64_t>(t)));
      for (int i = 0; i < 5000; ++i) {
        if (event.Raise(i, 0) != i) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : raisers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // 20000 raises against a threshold of 64: promotion certainly fired, and
  // the first-promotion-wins rule kept it to one.
  EXPECT_EQ(dispatcher.stats().lazy_promotions, 1u);
  dispatcher.SynchronizeAllShards();
}

}  // namespace
}  // namespace spin
