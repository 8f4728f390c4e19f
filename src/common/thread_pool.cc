#include "common/thread_pool.h"

#include <algorithm>

namespace exi {

ThreadPool::ThreadPool(size_t workers) {
  EnsureWorkerCount(std::max<size_t>(1, workers));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::EnsureWorkerCount(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < n && !stopping_) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(
      std::max<size_t>(2, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace exi
