#include "tsu/sim/thread_pool.hpp"

#include <algorithm>

namespace tsu::sim {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t lanes = std::max<std::size_t>(threads, 1);
  workers_.reserve(lanes - 1);
  for (std::size_t i = 0; i + 1 < lanes; ++i)
    workers_.emplace_back([this]() { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void ThreadPool::drain_batch() {
  while (true) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (next_ >= count_) return;
      index = next_++;
    }
    std::exception_ptr error;
    try {
      (*task_)(index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error) errors_[index] = error;
      if (--remaining_ == 0) done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&]() { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
    }
    drain_batch();
  }
}

void ThreadPool::parallel(std::size_t count,
                          const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Inline fast path: no locks, no wakes - run in index order, so the
    // single-lane execution is exactly the threaded claim sequence. Still
    // run every index and rethrow the lowest-index error, like the
    // threaded path.
    std::exception_ptr first;
    for (std::size_t index = 0; index < count; ++index) {
      try {
        fn(index);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = &fn;
    count_ = count;
    next_ = 0;
    remaining_ = count;
    errors_.assign(count, nullptr);
    ++generation_;
  }
  wake_.notify_all();
  drain_batch();  // the calling thread is a lane too
  std::exception_ptr first;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&]() { return remaining_ == 0; });
    task_ = nullptr;
    for (std::exception_ptr& error : errors_)
      if (error) {
        first = error;
        break;
      }
    errors_.clear();
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace tsu::sim
