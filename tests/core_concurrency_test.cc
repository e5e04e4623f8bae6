// Concurrency: raises proceed lock-free while handlers are installed and
// removed; the atomic table swap plus EBR must never expose a torn or freed
// table (§3: "handler lists are updated atomically with respect to event
// dispatch").
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/codegen/exec_memory.h"
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
  // reads the event's one table while installs republish it. Every churn
  // cycle installs micro handlers, so (with the JIT) it compiles a stub and
  // retires it with its table through the dispatcher's epoch domain. No
  // raise may ever see a torn table, a missing anchor, or a freed table or
  // stub on any shard.
  Module module("ShardChurn");
  Dispatcher::Config config;
  config.shards = 4;
  config.allow_direct = false;  // keep raises on the table path
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
  dispatcher.epoch().Synchronize();
}

TEST(ConcurrencyTest, LazyPromotionRacesRaisesOnOtherShards) {
  // lazy_compile defers stub generation until an event proves hot; the
  // promotion rebuild republishes the table while raises on every shard
  // keep reading it. Exactly one promotion may win, and no raise may
  // misdispatch across the interpreted->compiled flip.
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
  dispatcher.epoch().Synchronize();
}

std::atomic<bool> g_stalled{false};
std::atomic<bool> g_release{false};

// Blocks its raise, and so the raise's epoch guard, until released.
int64_t StallingHandler(int64_t x) {
  g_stalled.store(true, std::memory_order_release);
  while (!g_release.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return x;
}

struct Packet {
  uint8_t bytes[16];
};

TEST(ConcurrencyTest, StalledReaderBoundsRetiredGrowth) {
  // One raise on shard 0 blocks inside a native handler while the writer
  // runs install + guard + uninstall cycles on a 10-handler guarded sum
  // (the stub10 shape) and a 32-way port demux (the demux32 shape). Raises
  // on the other shards must keep returning the resident sums. The epoch
  // domain must keep what it retires until the stalled raise returns, and
  // retire no more than one table per rebuild plus one list per guard
  // change; then it drains and the code arena is back where it started,
  // so nothing a rebuild made outlives its table.
  constexpr uint32_t kShards = 8;
  constexpr int kPorts = 32;
  static uint64_t gate = 1;
  Module module("Stall");
  Dispatcher::Config config;
  config.shards = kShards;
  config.allow_direct = false;  // the stalled raise must hold an epoch guard
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t)> stall("Stall.Block", &module, nullptr, &dispatcher);
  Event<int64_t(int64_t)> sum10("Stall.Sum10", &module, nullptr, &dispatcher);
  Event<int64_t(Packet*)> demux("Stall.Demux32", &module, nullptr,
                                &dispatcher);
  dispatcher.InstallHandler(stall, &StallingHandler, {.module = &module});
  int64_t want10 = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t value = static_cast<uint64_t>(i + 1) << 8;
    want10 += static_cast<int64_t>(value);
    auto binding = dispatcher.InstallMicroHandler(
        sum10, micro::ReturnConst(1, value, /*functional=*/false),
        {.module = &module});
    dispatcher.AddMicroGuard(binding, micro::GuardGlobalEq(&gate, 1));
  }
  for (int port = 0; port < kPorts; ++port) {
    auto binding = dispatcher.InstallMicroHandler(
        demux,
        micro::ReturnConst(1, static_cast<uint64_t>(1000 + port),
                           /*functional=*/false),
        {.module = &module});
    dispatcher.AddMicroGuard(
        binding, micro::GuardArgFieldEq(1, 0, 4, 2, ~0ull,
                                        static_cast<uint64_t>(2000 + port)));
  }
  dispatcher.SetResultPolicy(sum10, ResultPolicy::kSum, &module);
  dispatcher.SetResultPolicy(demux, ResultPolicy::kSum, &module);
  dispatcher.epoch().Synchronize();
  size_t mapped_start = codegen::CodeBuffer::TotalMappedBytes();

  g_stalled = false;
  g_release = false;
  std::thread stalled([&] {
    RaiseSourceScope source(SourceOnShard(0, kShards));
    EXPECT_EQ(stall.Raise(7), 7);
  });
  while (!g_stalled.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  EpochDomain& epoch = dispatcher.epoch();
  size_t held_start = epoch.retired_count();
  Dispatcher::Stats before = dispatcher.stats();

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (uint32_t s = 1; s < kShards; ++s) {
    readers.emplace_back([&, s] {
      RaiseSourceScope source(SourceOnShard(s, kShards));
      Packet packet{};
      uint32_t i = s;
      do {
        int port = static_cast<int>(i++ % kPorts);
        auto field = static_cast<uint16_t>(2000 + port);
        std::memcpy(&packet.bytes[4], &field, sizeof(field));
        if (sum10.Raise(1) != want10 || demux.Raise(&packet) != 1000 + port) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int i = 0; i < 1000; ++i) {
    // The churned handler returns 0, so every sum stays what it was.
    bool on_demux = i % 2 == 1;
    EventBase& event = on_demux ? static_cast<EventBase&>(demux) : sum10;
    auto binding = dispatcher.InstallMicroHandler(
        event, micro::ReturnConst(1, 0, /*functional=*/false),
        {.module = &module});
    dispatcher.AddMicroGuard(
        binding, on_demux ? micro::GuardArgFieldEq(1, 0, 4, 2, ~0ull, 1999)
                          : micro::GuardGlobalEq(&gate, 1));
    dispatcher.Uninstall(binding, &module);
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  for (uint32_t s = 1; s < kShards; ++s) {
    EXPECT_GT(dispatcher.shard_raises(s), 0u) << "shard " << s;
  }
  Dispatcher::Stats after = dispatcher.stats();
  size_t held = epoch.retired_count();
  EXPECT_GT(held, held_start);
  EXPECT_LE(held - held_start, (after.rebuilds - before.rebuilds) +
                                   (after.guard_lists - before.guard_lists));

  g_release.store(true, std::memory_order_release);
  stalled.join();
  epoch.Synchronize();
  EXPECT_EQ(epoch.retired_count(), 0u);
  EXPECT_EQ(codegen::CodeBuffer::TotalMappedBytes(), mapped_start);
}

}  // namespace
}  // namespace spin
