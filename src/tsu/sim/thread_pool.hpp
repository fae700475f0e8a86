// A persistent worker pool for the parallel sharded simulator: one
// fixed set of threads reused across every epoch, so the per-epoch cost is
// a wake + a join rather than thread churn.
//
// The unit of work is parallel(count, fn): invoke fn(0..count-1), every
// index exactly once, distributed over the workers WITH the calling thread
// participating - a pool of size 1 (or a single-index batch) degenerates to
// a plain inline loop with no synchronization at all, which keeps the
// sequential-fallback cost of parallel mode honest on small machines.
//
// Exceptions thrown by tasks are captured per index; after every index of
// the batch has finished, the exception of the LOWEST index is rethrown on
// the calling thread (deterministic whatever the completion order).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tsu::sim {

class ThreadPool {
 public:
  // Spawns `threads - 1` workers (the caller is the remaining thread);
  // 0 means one, i.e. fully inline. hardware_threads() is a sensible cap.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total execution lanes including the calling thread.
  std::size_t size() const noexcept { return workers_.size() + 1; }

  // Runs fn(i) for every i in [0, count), blocking until all complete.
  // Reentrant calls (fn itself calling parallel) are not supported.
  void parallel(std::size_t count, const std::function<void(std::size_t)>& fn);

  // std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();
  // Claims and runs batch indexes until the batch is exhausted.
  void drain_batch();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;

  // Current batch, guarded by mutex_: generation bumps wake the workers,
  // next/remaining track claim and completion.
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::size_t remaining_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::exception_ptr> errors_;
  bool stopping_ = false;
};

}  // namespace tsu::sim
