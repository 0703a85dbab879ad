// Chunked (morsel) stream execution: fixed-size tuple carriers that move
// through the topology as one unit, so the per-tuple costs of the push
// model (§4.1) — a std::function dispatch, a queue push/pop, a routing
// hash — are paid once per chunk instead of once per tuple.
//
// The §3 punctuation contract is untouched: punctuations NEVER travel
// inside a chunk. A punctuation flushes every in-flight builder first
// (flush reason: boundary) and is then published as a plain
// StreamElement, so BOT/COMMIT framing, merge alignment and per-lane
// transaction batches are byte-identical to the per-tuple engine.
//
// Ownership model (three roles, zero steady-state allocation):
//   * Chunk<T>      — the storage: parallel tuple/timestamp arrays with a
//                     fixed capacity, reserved once at construction.
//   * ChunkView<T>  — a borrowed span handed to OnChunk subscribers. Valid
//                     ONLY for the duration of the call; an operator that
//                     needs the data later (e.g. MergePartitions holding
//                     post-boundary tuples back) must copy it into a chunk
//                     it owns.
//   * ChunkRef<T>   — unique ownership of a pooled chunk; returns the
//                     storage to its ChunkPool on destruction, cleared and
//                     ready for reuse. Queues hand off ChunkRefs, so a lane
//                     transports a pointer per chunk, not tuples.
//
// ChunkBuilder<T> accumulates routed tuples and reports WHY each chunk was
// flushed (full / boundary / timeout) — the flush-reason counters feed
// OperatorStats and make fill-ratio regressions observable.

#ifndef STREAMSI_STREAM_CHUNK_H_
#define STREAMSI_STREAM_CHUNK_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/latch.h"

namespace streamsi {

template <typename T>
class Chunk;

/// Borrowed span over a chunk's tuples + timestamps. Trivially copyable;
/// valid only while the underlying storage is (for OnChunk subscribers:
/// only for the duration of the call).
///
/// A view is either DENSE (rows [0, size) of the base arrays, in order) or
/// carries a SELECTION VECTOR: `size()` is then the number of selected
/// rows and element i resolves to base row `selection()[i]`. Selection
/// views are how Where ships survivors without copying a byte of tuple
/// data — it writes surviving row indices into an operator-owned selection
/// array and the view indirects through it. `data()`/`ts_data()` expose
/// the UNSELECTED base arrays; chunk loops must check `dense()` before
/// treating them as the logical sequence.
template <typename T>
class ChunkView {
 public:
  ChunkView() = default;
  ChunkView(const T* data, const Timestamp* ts, std::size_t size)
      : data_(data), ts_(ts), size_(size) {}
  /// Selected view: `sel` holds `size` base-row indices (strictly
  /// increasing for filter output, but any order is legal).
  ChunkView(const T* data, const Timestamp* ts, const std::uint32_t* sel,
            std::size_t size)
      : data_(data), ts_(ts), sel_(sel), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True when the view covers base rows [0, size) directly — the layout
  /// kernels and bulk copies require.
  bool dense() const { return sel_ == nullptr; }
  /// Selection array (size() entries), or nullptr when dense.
  const std::uint32_t* selection() const { return sel_; }

  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[sel_ ? sel_[i] : i];
  }
  Timestamp ts(std::size_t i) const {
    assert(i < size_);
    return ts_[sel_ ? sel_[i] : i];
  }

  const T* data() const { return data_; }
  const Timestamp* ts_data() const { return ts_; }

  /// Sub-span [offset, offset + count) — Batcher slices a chunk at batch
  /// boundaries without copying. Slicing a selected view slices the
  /// selection, not the base arrays.
  ChunkView Slice(std::size_t offset, std::size_t count) const {
    assert(offset + count <= size_);
    if (sel_ != nullptr) {
      return ChunkView(data_, ts_, sel_ + offset, count);
    }
    return ChunkView(data_ + offset, ts_ + offset, count);
  }

 private:
  const T* data_ = nullptr;
  const Timestamp* ts_ = nullptr;
  const std::uint32_t* sel_ = nullptr;
  std::size_t size_ = 0;
};

/// Fixed-capacity tuple carrier: parallel data/timestamp arrays, reserved
/// once. Append never reallocates (capacity is a hard bound), so a reused
/// chunk is allocation-free at steady state.
template <typename T>
class Chunk {
 public:
  explicit Chunk(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
    data_.reserve(capacity);
    ts_.reserve(capacity);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  bool full() const { return data_.size() >= capacity_; }

  void Append(const T& value, Timestamp ts) {
    assert(!full());
    data_.push_back(value);
    ts_.push_back(ts);
  }
  void Append(T&& value, Timestamp ts) {
    assert(!full());
    data_.push_back(std::move(value));
    ts_.push_back(ts);
  }

  /// Copies a borrowed view in (merge holding tuples back, queue handoff).
  /// A selected view is compacted: the copy is dense.
  void AppendView(const ChunkView<T>& view) {
    assert(data_.size() + view.size() <= capacity_);
    if (view.dense()) {
      data_.insert(data_.end(), view.data(), view.data() + view.size());
      ts_.insert(ts_.end(), view.ts_data(), view.ts_data() + view.size());
      return;
    }
    for (std::size_t i = 0; i < view.size(); ++i) {
      data_.push_back(view[i]);
      ts_.push_back(view.ts(i));
    }
  }

  void Clear() {
    data_.clear();
    ts_.clear();
  }

  /// Bulk writer for kernels: sizes the chunk to exactly `n` rows and hands
  /// back the raw arrays for the caller to overwrite. Because the resize
  /// only value-initializes elements BEYOND the current size, a kernel that
  /// reuses one chunk at a steady row count re-initializes nothing — the
  /// caller must write every slot before the chunk is read, and must not
  /// mix this with Append (which appends after row n-1).
  std::pair<T*, Timestamp*> ResizeForOverwrite(std::size_t n) {
    assert(n <= capacity_);
    data_.resize(n);
    ts_.resize(n);
    return {data_.data(), ts_.data()};
  }

  ChunkView<T> view() const {
    return ChunkView<T>(data_.data(), ts_.data(), data_.size());
  }

 private:
  std::size_t capacity_;
  std::vector<T> data_;
  std::vector<Timestamp> ts_;
};

template <typename T>
class ChunkPool;

/// Unique ownership of one pooled chunk. Move-only; destruction (or
/// Release) hands the storage back to the pool, cleared for reuse.
template <typename T>
class ChunkRef {
 public:
  ChunkRef() = default;
  ChunkRef(Chunk<T>* chunk, std::shared_ptr<ChunkPool<T>> pool)
      : chunk_(chunk), pool_(std::move(pool)) {}
  ~ChunkRef() { Release(); }

  ChunkRef(const ChunkRef&) = delete;
  ChunkRef& operator=(const ChunkRef&) = delete;
  ChunkRef(ChunkRef&& other) noexcept
      : chunk_(other.chunk_), pool_(std::move(other.pool_)) {
    other.chunk_ = nullptr;
  }
  ChunkRef& operator=(ChunkRef&& other) noexcept {
    if (this != &other) {
      Release();
      chunk_ = other.chunk_;
      pool_ = std::move(other.pool_);
      other.chunk_ = nullptr;
    }
    return *this;
  }

  explicit operator bool() const { return chunk_ != nullptr; }
  Chunk<T>* operator->() const { return chunk_; }
  Chunk<T>& operator*() const { return *chunk_; }
  Chunk<T>* get() const { return chunk_; }

  void Release();

 private:
  Chunk<T>* chunk_ = nullptr;
  std::shared_ptr<ChunkPool<T>> pool_;
};

/// Free list of reusable chunks. Acquire returns a cleared chunk with at
/// least the requested capacity, allocating only when the pool is dry —
/// the working set is bounded by the downstream queue depths, so the pool
/// stops allocating once the pipeline's high-water mark is reached.
template <typename T>
class ChunkPool : public std::enable_shared_from_this<ChunkPool<T>> {
 public:
  static std::shared_ptr<ChunkPool<T>> Create() {
    return std::make_shared<ChunkPool<T>>();
  }

  ChunkRef<T> Acquire(std::size_t capacity) {
    {
      std::lock_guard<SpinLock> guard(lock_);
      // First fit: free lists hold chunks of (usually) one capacity per
      // pipeline stage, so the scan is effectively O(1).
      for (std::size_t i = 0; i < free_.size(); ++i) {
        if (free_[i]->capacity() >= capacity) {
          Chunk<T>* chunk = free_[i].release();
          free_[i] = std::move(free_.back());
          free_.pop_back();
          reused_.fetch_add(1, std::memory_order_relaxed);
          return ChunkRef<T>(chunk, this->shared_from_this());
        }
      }
    }
    allocated_.fetch_add(1, std::memory_order_relaxed);
    return ChunkRef<T>(new Chunk<T>(capacity), this->shared_from_this());
  }

  void Release(Chunk<T>* chunk) {
    chunk->Clear();
    std::lock_guard<SpinLock> guard(lock_);
    free_.emplace_back(chunk);
  }

  /// Chunks newly allocated (steady state: stops growing).
  std::uint64_t allocated() const {
    return allocated_.load(std::memory_order_relaxed);
  }
  std::uint64_t reused() const {
    return reused_.load(std::memory_order_relaxed);
  }

 private:
  SpinLock lock_;
  std::vector<std::unique_ptr<Chunk<T>>> free_;
  std::atomic<std::uint64_t> allocated_{0};
  std::atomic<std::uint64_t> reused_{0};
};

template <typename T>
void ChunkRef<T>::Release() {
  if (chunk_ != nullptr) {
    pool_->Release(chunk_);
    chunk_ = nullptr;
  }
  pool_.reset();
}

/// Why a builder flushed its chunk downstream.
enum class ChunkFlushReason : std::uint8_t {
  kFull = 0,      ///< chunk reached capacity
  kBoundary = 1,  ///< punctuation (or shutdown) forced the flush
  kTimeout = 2,   ///< linger deadline expired on a partial chunk
};

/// Flush-reason counters of one builder. Written by the producer thread,
/// read by stats() snapshots — relaxed atomics.
struct ChunkBuildStats {
  std::atomic<std::uint64_t> chunks{0};          ///< chunks flushed
  std::atomic<std::uint64_t> tuples{0};          ///< tuples inside them
  std::atomic<std::uint64_t> flush_full{0};      ///< reason: capacity
  std::atomic<std::uint64_t> flush_boundary{0};  ///< reason: punctuation
  std::atomic<std::uint64_t> flush_timeout{0};   ///< reason: linger expiry
};

/// Accumulates routed tuples into a pooled chunk; the owner decides when
/// to Take() (full / boundary / linger) and where the chunk goes. Single
/// producer thread per builder.
template <typename T>
class ChunkBuilder {
 public:
  ChunkBuilder() = default;
  ChunkBuilder(std::shared_ptr<ChunkPool<T>> pool, std::size_t capacity,
               std::uint64_t linger_micros, ChunkBuildStats* stats)
      : pool_(std::move(pool)),
        capacity_(capacity),
        linger_micros_(linger_micros),
        stats_(stats) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return current_ ? current_->size() : 0; }
  bool empty() const { return size() == 0; }
  bool full() const { return current_ && current_->full(); }

  /// Appends one tuple; returns true when the chunk just filled up (the
  /// caller should Take(kFull) and ship it).
  bool Append(const T& value, Timestamp ts) {
    if (!current_) {
      current_ = pool_->Acquire(capacity_);
      if (linger_micros_ > 0) opened_at_ = std::chrono::steady_clock::now();
    }
    current_->Append(value, ts);
    return current_->full();
  }

  /// True when a linger deadline is configured and the partial chunk has
  /// been open longer than it.
  bool LingerExpired() const {
    if (linger_micros_ == 0 || empty()) return false;
    const auto age = std::chrono::steady_clock::now() - opened_at_;
    return std::chrono::duration_cast<std::chrono::microseconds>(age)
               .count() >= static_cast<std::int64_t>(linger_micros_);
  }

  /// Hands the accumulated chunk over (empty ref when nothing buffered)
  /// and records the flush reason.
  ChunkRef<T> Take(ChunkFlushReason reason) {
    if (!current_) return ChunkRef<T>();
    if (stats_ != nullptr) {
      stats_->chunks.fetch_add(1, std::memory_order_relaxed);
      stats_->tuples.fetch_add(current_->size(), std::memory_order_relaxed);
      switch (reason) {
        case ChunkFlushReason::kFull:
          stats_->flush_full.fetch_add(1, std::memory_order_relaxed);
          break;
        case ChunkFlushReason::kBoundary:
          stats_->flush_boundary.fetch_add(1, std::memory_order_relaxed);
          break;
        case ChunkFlushReason::kTimeout:
          stats_->flush_timeout.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
    return std::move(current_);
  }

 private:
  std::shared_ptr<ChunkPool<T>> pool_;
  std::size_t capacity_ = 0;
  std::uint64_t linger_micros_ = 0;
  ChunkBuildStats* stats_ = nullptr;
  ChunkRef<T> current_;
  std::chrono::steady_clock::time_point opened_at_{};
};

}  // namespace streamsi

#endif  // STREAMSI_STREAM_CHUNK_H_
