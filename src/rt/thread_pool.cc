#include "src/rt/thread_pool.h"

#include <utility>

#include "src/rt/panic.h"

namespace spin {

ThreadPool::ThreadPool(size_t workers) {
  if (workers == 0) {
    workers = 2;
  }
  queues_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Drain();
  // Drain returns when in_flight_ hits zero, but a detached spawn thread
  // decrements in_flight_ *inside* FinishTask and then notifies idle_ —
  // both touch members of this object. Wait for each spawn thread's final
  // release store before destroying anything.
  while (spawn_live_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();  // intentionally leaked
  return *pool;
}

void ThreadPool::Spawn(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SPIN_ASSERT(!shutdown_);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    spawn_live_.fetch_add(1, std::memory_order_relaxed);
  }
  std::thread([this, task = std::move(task)] {
    task();
    executed_.fetch_add(1, std::memory_order_relaxed);
    FinishTask();
    // Last touch of the pool: after this store the destructor may proceed.
    spawn_live_.fetch_sub(1, std::memory_order_release);
  }).detach();
}

void ThreadPool::Enqueue(size_t index, std::function<void()> task) {
  Queue& q = *queues_[index % queues_.size()];
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(q.mu);
    q.tasks.push_back(std::move(task));
    q.depth.fetch_add(1, std::memory_order_relaxed);
  }
  // seq_cst pairs with the sleeper's seq_cst recheck of queued_: either the
  // going-to-sleep worker observes our task, or we observe it sleeping.
  queued_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // Lock so the notify cannot slip between a sleeper's recheck and its
    // wait; uncontended when no worker is going to sleep right now.
    { std::lock_guard<std::mutex> lock(mu_); }
    wake_.notify_one();
  }
}

void ThreadPool::SubmitTo(size_t queue, std::function<void()> task,
                          AsyncMode mode) {
  if (mode == AsyncMode::kSpawn) {
    Spawn(std::move(task));
    return;
  }
  Enqueue(queue, std::move(task));
}

bool ThreadPool::TryPop(size_t index, std::function<void()>* task,
                        size_t* from) {
  const size_t n = queues_.size();
  Queue& own = *queues_[index];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.front());
      own.tasks.pop_front();
      own.depth.fetch_sub(1, std::memory_order_relaxed);
      *from = index;
      return true;
    }
  }
  for (size_t j = 1; j < n; ++j) {
    size_t v = (index + j) % n;
    Queue& victim = *queues_[v];
    // Cheap unlocked peek; the locked re-check below is authoritative.
    if (victim.depth.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.tasks.empty()) {
      continue;
    }
    *task = std::move(victim.tasks.back());
    victim.tasks.pop_back();
    victim.depth.fetch_sub(1, std::memory_order_relaxed);
    victim.stolen.fetch_add(1, std::memory_order_relaxed);
    steals_.fetch_add(1, std::memory_order_relaxed);
    *from = v;
    return true;
  }
  return false;
}

void ThreadPool::FinishTask() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Lock/unlock so a Drain caller between its predicate check and its
    // wait cannot miss the notification.
    { std::lock_guard<std::mutex> lock(mu_); }
    idle_.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t index) {
  while (true) {
    std::function<void()> task;
    size_t from = index;
    if (TryPop(index, &task, &from)) {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      task();
      task = nullptr;  // release captures before accounting the finish
      executed_.fetch_add(1, std::memory_order_relaxed);
      queues_[from]->executed.fetch_add(1, std::memory_order_relaxed);
      FinishTask();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    wake_.wait(lock, [this] {
      return shutdown_ || queued_.load(std::memory_order_seq_cst) > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    if (shutdown_ && queued_.load(std::memory_order_relaxed) == 0) {
      return;
    }
  }
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

size_t ThreadPool::pending() const {
  return in_flight_.load(std::memory_order_relaxed);
}

size_t ThreadPool::queue_depth() const {
  size_t total = 0;
  for (const auto& q : queues_) {
    total += q->depth.load(std::memory_order_relaxed);
  }
  return total;
}

size_t ThreadPool::queue_depth(size_t queue) const {
  return queues_[queue % queues_.size()]->depth.load(
      std::memory_order_relaxed);
}

uint64_t ThreadPool::executed(size_t queue) const {
  return queues_[queue % queues_.size()]->executed.load(
      std::memory_order_relaxed);
}

uint64_t ThreadPool::steals() const {
  return steals_.load(std::memory_order_relaxed);
}

uint64_t ThreadPool::steals(size_t queue) const {
  return queues_[queue % queues_.size()]->stolen.load(
      std::memory_order_relaxed);
}

}  // namespace spin
