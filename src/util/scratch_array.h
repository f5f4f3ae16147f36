#pragma once

/// \file scratch_array.h
/// Universe-sized scratch storage that costs only the pages a pass writes.
///
/// A selector's dense per-entity arrays (counts, touched lists, epoch-stamped
/// accumulators) are sized by the collection's universe — 1M+ entities on
/// the web-tables corpus — while one count touches a small fraction of it.
/// A std::vector value-initializes on resize, so a fresh selector writes
/// every page of every array before its first count: megabytes of zeros,
/// page faults included, per session. ScratchArray allocates instead:
///
///   * AllocateZeroed takes calloc's storage. For a large block that is
///     fresh kernel-zeroed pages that fault in on first touch, and for a
///     reused heap block calloc clears it itself; either way every entry
///     reads 0, and a fresh block has no page written up front.
///   * AllocateUninitialized takes malloc's storage, for arrays that are
///     written before they are read (a touched list whose readers see only
///     its written prefix, an accumulator read only where its stamp says it
///     was written this pass): only the pages a pass writes are faulted in.
///
/// Both drop the previous contents. Callers grow only arrays whose contents
/// are dead or all-zero at that point, so nothing needs copying. Nothing is
/// pooled: Reset() returns the storage to the allocator.

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace setdisc {

template <typename T>
class ScratchArray {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ScratchArray holds plain values only");

 public:
  ScratchArray() = default;
  ScratchArray(ScratchArray&& other) noexcept
      : data_(std::move(other.data_)), size_(std::exchange(other.size_, 0)) {}
  ScratchArray& operator=(ScratchArray&& other) noexcept {
    data_ = std::move(other.data_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  /// Replaces the storage with `n` entries that all read zero.
  void AllocateZeroed(size_t n) {
    Reset();
    Adopt(std::calloc(n, sizeof(T)), n);
  }

  /// Replaces the storage with `n` entries of unspecified value.
  void AllocateUninitialized(size_t n) {
    Reset();
    Adopt(std::malloc(n * sizeof(T)), n);
  }

  /// Frees the storage; size() becomes 0.
  void Reset() {
    data_.reset();
    size_ = 0;
  }

  size_t size() const { return size_; }
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  T& operator[](size_t i) { return data_[i]; }
  std::span<T> span() { return {data_.get(), size_}; }
  std::span<const T> span() const { return {data_.get(), size_}; }

 private:
  struct Free {
    void operator()(T* p) const { std::free(p); }
  };

  void Adopt(void* p, size_t n) {
    if (p == nullptr && n > 0) throw std::bad_alloc();
    data_.reset(static_cast<T*>(p));
    size_ = n;
  }

  std::unique_ptr<T[], Free> data_;
  size_t size_ = 0;
};

}  // namespace setdisc
