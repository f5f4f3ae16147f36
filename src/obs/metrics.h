#pragma once

/// \file metrics.h
/// Observability primitives: striped relaxed-atomic counters, gauges, and a
/// fixed-bucket log-linear latency histogram (HDR-style), all cheap enough
/// to sit on the per-step hot path.
///
/// Design constraints, in order:
///
///  * Record() is lock-free and wait-free — one relaxed fetch_add into a
///    bucket plus one into the running sum (<50ns, typically ~15ns);
///  * a snapshot is mergeable: per-process histograms from different
///    sources (or different processes, over the wire) add bucket-wise;
///  * the whole subsystem has a single global kill switch (SetEnabled) so
///    bench_obs can measure the instrumented binary with metrics off — the
///    disabled fast path is one relaxed atomic load.
///
/// Everything here depends only on the standard library; every other layer
/// (collection/, core/, service/, net/, util/) may include it freely.

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace setdisc::obs {

/// Global metrics kill switch. On by default; bench_obs flips it to measure
/// the cost of the instrumentation itself. Relaxed: flipping it mid-flight
/// only makes concurrent recorders stop (or start) at their next check.
bool Enabled();
void SetEnabled(bool enabled);

/// Monotonic nanoseconds (steady_clock). The one clock all timers read.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically increasing event counter, striped across cache lines so
/// concurrent writers from different threads don't bounce one hot line.
/// Value() sums the stripes — a racy-but-consistent-enough read, like every
/// monitoring counter.
class Counter {
 public:
  static constexpr size_t kStripes = 8;  // power of two

  void Add(uint64_t n = 1) {
    cells_[StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };

  static size_t StripeIndex();

  Cell cells_[kStripes];
};

/// A settable signed level (queue depth, buffered bytes). Single atomic:
/// gauges are updated from few places and read rarely.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Point-in-time copy of a Histogram, safe to merge, quantile, and ship.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets;  // size Histogram::kNumBuckets (or empty)

  /// Bucket-wise addition; the quantile error bound is unchanged.
  void Merge(const HistogramSnapshot& other);

  /// Value at quantile q in [0, 1]: the representative (midpoint) of the
  /// bucket containing the rank-ceil(q*count) recorded value. Relative
  /// error is bounded by the bucket width: < 2^-kSubBucketBits (6.25%).
  /// Returns 0 when empty.
  uint64_t ValueAtQuantile(double q) const;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Fixed-bucket log-linear histogram over uint64 values (nanoseconds, bytes,
/// counts). Values 0..15 get exact unit buckets; above that each power-of-2
/// octave splits into 16 linear sub-buckets, so relative error is <= 1/16
/// everywhere while the whole table is 976 buckets (~7.6 KiB).
///
/// Record() is wait-free (two relaxed fetch_adds); Snapshot() is a relaxed
/// scan that may tear against concurrent writers by at most the writes in
/// flight — fine for monitoring, and exactly what the TSan test checks
/// stays race-free.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 16
  /// 16 unit buckets + (63 - 4 + 1) octaves of 16 sub-buckets each.
  static constexpr size_t kNumBuckets =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;  // 976

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// Bucket index of `value`; the inverse maps below bound the bucket's
  /// value range [lower, upper).
  static size_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) return static_cast<size_t>(value);
    const int h = 63 - std::countl_zero(value);  // floor(log2(value))
    return kSubBuckets +
           static_cast<size_t>(h - kSubBucketBits) * kSubBuckets +
           static_cast<size_t>((value >> (h - kSubBucketBits)) &
                               (kSubBuckets - 1));
  }

  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketUpperBound(size_t index);  // exclusive

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

/// Records the elapsed wall time of a scope into a histogram. A null
/// histogram, or metrics globally disabled at construction, skips both
/// clock reads.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : h_(h), start_(h != nullptr && Enabled() ? NowNanos() : 0) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (start_ != 0) h_->Record(NowNanos() - start_);
  }

 private:
  Histogram* h_;
  uint64_t start_;
};

}  // namespace setdisc::obs
