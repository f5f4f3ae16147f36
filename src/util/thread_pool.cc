#include "util/thread_pool.h"

#include "obs/metrics.h"
#include "obs/registry.h"
#include "util/status.h"

namespace setdisc {

namespace {

obs::Histogram* QueueWaitHistogram() {
  static obs::Histogram* const h =
      obs::MetricsRegistry::Default().GetHistogram(
          "setdisc_pool_queue_wait_ns");
  return h;
}

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* const g =
      obs::MetricsRegistry::Default().GetGauge("setdisc_pool_queue_depth");
  return g;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  const uint64_t now = obs::Enabled() ? obs::NowNanos() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SETDISC_CHECK(!stopping_);
    queue_.push_back(Task{std::move(task), now});
    if (now != 0) {
      QueueDepthGauge()->Set(static_cast<int64_t>(queue_.size()));
    }
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      if (task.enqueue_ns != 0) {
        QueueDepthGauge()->Set(static_cast<int64_t>(queue_.size()));
      }
    }
    if (task.enqueue_ns != 0) {
      QueueWaitHistogram()->Record(obs::NowNanos() - task.enqueue_ns);
    }
    task.fn();
  }
}

}  // namespace setdisc
