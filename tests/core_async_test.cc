// Asynchronous events and handlers (§2.6).
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"

namespace spin {
namespace {

std::atomic<int> g_sync_calls{0};
std::atomic<int> g_async_calls{0};
std::atomic<int> g_throw_calls{0};
std::atomic<std::thread::id> g_async_thread{};

void SyncHandler(int64_t, int64_t) { g_sync_calls.fetch_add(1); }
void AsyncHandler(int64_t, int64_t) {
  g_async_thread.store(std::this_thread::get_id());
  g_async_calls.fetch_add(1);
}
void ThrowingHandler(int64_t, int64_t) {
  g_throw_calls.fetch_add(1);
  throw std::runtime_error("detached body failed");
}
bool GuardFalse(int64_t, int64_t) { return false; }
int64_t DefaultZero(int64_t, int64_t) { return 0; }

class AsyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_sync_calls = 0;
    g_async_calls = 0;
    g_throw_calls = 0;
  }
  Module module_{"AsyncTest"};
  Dispatcher dispatcher_;
};

TEST_F(AsyncTest, AsyncHandlerRunsDetached) {
  Event<void(int64_t, int64_t)> event("Test.Async", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &SyncHandler, {.module = &module_});
  dispatcher_.InstallHandler(event, &AsyncHandler,
                             {.async = true, .module = &module_});
  event.Raise(1, 2);
  EXPECT_EQ(g_sync_calls.load(), 1);
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), 1);
  EXPECT_NE(g_async_thread.load(), std::this_thread::get_id())
      << "asynchronous handlers execute on a separate thread of control";
}

TEST_F(AsyncTest, AsyncHandlerGuardEvaluatedSynchronously) {
  Event<void(int64_t, int64_t)> event("Test.Async", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &SyncHandler, {.module = &module_});
  dispatcher_.InstallHandler(event, &GuardFalse, &AsyncHandler,
                             {.async = true, .module = &module_});
  event.Raise(1, 2);
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), 0) << "failed guard blocks scheduling";
}

TEST_F(AsyncTest, AsyncEventDetachesWholeDispatch) {
  Event<void(int64_t, int64_t)> event("Test.AsyncEvent", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &AsyncHandler, {.module = &module_});
  dispatcher_.SetEventAsync(event, true, &module_);
  event.Raise(1, 2);  // returns immediately
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), 1);
}

TEST_F(AsyncTest, RaiseAsyncExplicit) {
  Event<void(int64_t, int64_t)> event("Test.RaiseAsync", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &AsyncHandler, {.module = &module_});
  for (int i = 0; i < 10; ++i) {
    event.RaiseAsync(i, i);
  }
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), 10);
}

TEST_F(AsyncTest, AsyncResultEventRequiresDefaultHandler) {
  // §2.6: "an attempt to raise an event asynchronously that returns a
  // result will raise an exception unless a default handler is installed."
  Event<int64_t(int64_t, int64_t)> event("Test.AsyncResult", &module_,
                                         nullptr, &dispatcher_);
  dispatcher_.InstallLambda(event, [](int64_t a, int64_t b) { return a + b; },
                            {.module = &module_});
  EXPECT_THROW(event.RaiseAsync(1, 2), AsyncError);
  dispatcher_.InstallDefaultHandler(event, &DefaultZero,
                                    {.module = &module_});
  EXPECT_NO_THROW(event.RaiseAsync(1, 2));
  dispatcher_.pool().Drain();
}

TEST_F(AsyncTest, ByRefEventCannotBeAsync) {
  // "it is illegal to define as asynchronous an event that takes an
  // argument by reference, or to install an asynchronous handler on such
  // an event."
  Event<void(int64_t, int64_t&)> event("Test.ByRef", &module_, nullptr,
                                       &dispatcher_);
  try {
    dispatcher_.SetEventAsync(event, true, &module_);
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kAsyncByRef);
  }
  void (*handler)(int64_t, int64_t&) = +[](int64_t, int64_t&) {};
  try {
    dispatcher_.InstallHandler(event, handler,
                               {.async = true, .module = &module_});
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kAsyncByRef);
  }
}

TEST_F(AsyncTest, AsyncNoHandlerIsAbsorbed) {
  Event<void(int64_t, int64_t)> event("Test.AsyncEmpty", &module_, nullptr,
                                      &dispatcher_);
  EXPECT_NO_THROW(event.RaiseAsync(1, 2));
  dispatcher_.pool().Drain();  // the detached NoHandlerError is swallowed
}

// A detached body has no raiser to report to: whatever it throws, not only
// a DispatchError, stays on the pool thread instead of ending the process.
TEST_F(AsyncTest, ThrowingAsyncHandlerIsContained) {
  Event<void(int64_t, int64_t)> event("Test.AsyncThrow", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(
      event, &ThrowingHandler,
      {.async = true, .may_throw = true, .module = &module_});
  dispatcher_.InstallHandler(event, &AsyncHandler,
                             {.async = true, .module = &module_});
  for (int i = 0; i < 4; ++i) {
    EXPECT_NO_THROW(event.Raise(i, i));
  }
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_throw_calls.load(), 4);
  EXPECT_EQ(g_async_calls.load(), 4)
      << "later async bindings of the same raise still run";
}

TEST_F(AsyncTest, ThrowingDetachedRaiseIsContained) {
  Event<void(int64_t, int64_t)> event("Test.RaiseAsyncThrow", &module_,
                                      nullptr, &dispatcher_);
  dispatcher_.InstallHandler(event, &ThrowingHandler,
                             {.may_throw = true, .module = &module_});
  for (int i = 0; i < 4; ++i) {
    EXPECT_NO_THROW(event.RaiseAsync(i, i));
  }
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_throw_calls.load(), 4);
}

TEST_F(AsyncTest, SpawnModeAlsoWorks) {
  Dispatcher::Config config;
  config.async_mode = AsyncMode::kSpawn;  // the paper's thread-per-raise
  Dispatcher dispatcher(config);
  Event<void(int64_t, int64_t)> event("Test.Spawn", &module_, nullptr,
                                      &dispatcher);
  dispatcher.InstallHandler(event, &AsyncHandler,
                            {.async = true, .module = &module_});
  event.Raise(0, 0);
  dispatcher.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), 1);
}

TEST_F(AsyncTest, ManyConcurrentAsyncRaises) {
  Event<void(int64_t, int64_t)> event("Test.Flood", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &AsyncHandler, {.module = &module_});
  constexpr int kRaises = 500;
  for (int i = 0; i < kRaises; ++i) {
    event.RaiseAsync(i, i);
  }
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), kRaises);
}

}  // namespace
}  // namespace spin
