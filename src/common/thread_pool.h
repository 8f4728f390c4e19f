#ifndef EXTIDX_COMMON_THREAD_POOL_H_
#define EXTIDX_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace exi {

// Fixed-function worker pool.  Its one engine user is the domain-index
// join's probe window (DESIGN.md §5); builds and index scans are serial.
// Tasks are plain closures; results travel back through std::future.
//
// The pool is deliberately dumb: no priorities, no work stealing, FIFO
// dispatch.  Callers size their fan-out with the session `parallelism`
// knob and call EnsureWorkerCount first; tasks must not block on other
// pool tasks (no nesting), which every engine use site honors.
class ThreadPool {
 public:
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Grows the pool to at least `n` workers (never shrinks).  Cheap when
  // already large enough; safe from any thread.
  void EnsureWorkerCount(size_t n);

  // Enqueues `fn` and returns a future for its result.
  template <typename F>
  auto Submit(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    Post([task]() { (*task)(); });
    return result;
  }

  // Process-wide pool, created on first use and never destroyed (worker
  // threads outlive static destruction, so no shutdown races at exit).
  // Engine components accept an explicit pool for tests and default to
  // this one.
  static ThreadPool& Global();

 private:
  void Post(std::function<void()> task);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace exi

#endif  // EXTIDX_COMMON_THREAD_POOL_H_
