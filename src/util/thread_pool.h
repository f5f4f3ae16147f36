#pragma once

/// \file thread_pool.h
/// A small fixed-size worker pool for the service layer.
///
/// The SessionManager multiplexes many interactive sessions over one shared
/// SetCollection; the CPU cost of a step is the selector's Select() scan,
/// which is independent across sessions. The pool lets those scans run
/// concurrently while the shared collection and index stay read-only.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace setdisc {

/// Fixed-size FIFO thread pool. Submitted tasks run in submission order but
/// may complete out of order. Destruction drains the queue: already-submitted
/// tasks finish before the workers join.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Finishes queued tasks, then joins the workers.
  ~ThreadPool();

  /// Enqueues `fn` and returns a future for its result. `fn` must be
  /// invocable with no arguments. Each call allocates the future's shared
  /// state; a caller that never reads the result should Post instead.
  template <typename Fn, typename R = std::invoke_result_t<Fn>>
  std::future<R> Submit(Fn fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// Enqueues `fn` with no future: fire and forget. `fn` must not throw
  /// (nothing would observe the exception; it escapes the worker).
  void Post(std::function<void()> fn) { Enqueue(std::move(fn)); }

  size_t num_threads() const { return workers_.size(); }

  /// Tasks enqueued but not yet picked up by a worker — the backlog a
  /// saturated pool accumulates (exposed as the queue-depth gauge and in
  /// the server's rich stats reply).
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  /// A queued task plus its submission timestamp: the dequeue-side delta
  /// is the queue-wait time (setdisc_pool_queue_wait_ns). Zero when
  /// metrics were disabled at submission.
  struct Task {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
  };

  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace setdisc
