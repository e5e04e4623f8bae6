// Worker threads backing asynchronous events (§2.6 "Runaway handlers").
//
// The paper spawns a new thread of control per asynchronous raise and
// measures 38-90 us of added latency, attributing it to thread creation. We
// provide both disciplines:
//   - kSpawn: a fresh std::thread per task (paper-faithful; bench_async
//     measures its cost),
//   - kPooled: a fixed worker pool (the obvious optimization the paper notes
//     it had not yet applied: "asynchronous events ... have not been
//     optimized").
//
// The pooled discipline is multi-queue: one deque per worker, each with its
// own lock, the way per-queue NIC rings keep producers off one shared ring.
// SubmitTo(queue, task) pins work to a queue — the sharded dispatcher routes
// each shard's async outbox to its own queue.
// Worker i drains queue i first and steals from the other queues' tails when
// its own runs dry, so a skewed shard hash degrades to shared-queue behavior
// instead of idling workers. Per-queue depth/executed/stolen counters feed
// the shard-labeled metric export.
#ifndef SRC_RT_THREAD_POOL_H_
#define SRC_RT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace spin {

enum class AsyncMode {
  kPooled,  // run on a fixed worker pool
  kSpawn,   // spawn a fresh thread per task, detached tracking via counters
};

class ThreadPool {
 public:
  explicit ThreadPool(size_t workers = std::thread::hardware_concurrency());
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-wide pool used by dispatchers unless configured otherwise.
  static ThreadPool& Global();

  // Enqueues a task on queue `queue % queues()`, or spawns it. Never blocks
  // on task execution. The queue's pinned worker drains it in FIFO order;
  // idle workers may steal from the tail. kSpawn ignores the queue index.
  void SubmitTo(size_t queue, std::function<void()> task,
                AsyncMode mode = AsyncMode::kPooled);

  // Blocks until all submitted tasks (pooled and spawned) have finished.
  void Drain();

  size_t pending() const;

  // Number of queues (== number of workers).
  size_t queues() const { return queues_.size(); }

  // Tasks sitting in the pooled queues, not yet picked up by a worker.
  size_t queue_depth() const;
  // Depth of one queue.
  size_t queue_depth(size_t queue) const;

  // Tasks that have finished executing (pooled and spawned) over the pool's
  // lifetime. Monotonic; for metric export.
  uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  // Finished tasks that were submitted to `queue` (whether run by the
  // pinned worker or a thief).
  uint64_t executed(size_t queue) const;

  // Tasks stolen across all queues / stolen from one queue's tail.
  uint64_t steals() const;
  uint64_t steals(size_t queue) const;

 private:
  struct alignas(64) Queue {
    mutable std::mutex mu;
    std::deque<std::function<void()>> tasks;
    std::atomic<size_t> depth{0};
    std::atomic<uint64_t> executed{0};  // submitted here and finished
    std::atomic<uint64_t> stolen{0};    // taken from this queue by a thief
  };

  void Enqueue(size_t queue, std::function<void()> task);
  void Spawn(std::function<void()> task);
  void WorkerLoop(size_t index);
  // Pops a task for worker `index`: own queue front first, then steals from
  // the other queues' tails. Returns the source queue in *from.
  bool TryPop(size_t index, std::function<void()>* task, size_t* from);
  void FinishTask();

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  // Sleep/idle/shutdown coordination. The submit fast path never takes
  // mu_ unless a worker is asleep (sleepers_ > 0).
  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::atomic<size_t> queued_{0};     // tasks in queues (seq_cst vs sleepers_)
  std::atomic<size_t> sleepers_{0};   // workers blocked on wake_
  std::atomic<size_t> in_flight_{0};  // queued + executing + spawned
  // Detached spawn threads still inside the pool (they touch mu_/idle_ in
  // FinishTask after in_flight_ hits zero). The destructor must not tear
  // the pool down until each one has made its final store here.
  std::atomic<size_t> spawn_live_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> steals_{0};
  bool shutdown_ = false;  // guarded by mu_
};

}  // namespace spin

#endif  // SRC_RT_THREAD_POOL_H_
