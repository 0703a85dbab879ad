// BoundedQueue + queue-based stream handoff for crossing thread
// boundaries inside a topology (e.g. consuming ToStream change events,
// which are published from committing threads, on a dedicated thread, or
// feeding the per-lane worker threads of PartitionBy).
//
// The queue is multi-producer (any upstream thread may push), single- or
// multi-consumer, and *bounded*: when full, the configured backpressure
// policy either blocks the producer until the consumer drains (kBlock) or
// rejects the incoming element (kDropNewest). Close() is a drain barrier:
// elements enqueued before the close are still delivered, but Push after
// Close deterministically returns kClosed without enqueueing — a producer
// racing a shutdown can never smuggle elements into a queue whose consumer
// already observed drain-and-exit.
//
// Storage: bounded queues (capacity <= kRingMaxCapacity) run on a ring
// buffer allocated once at construction — the steady state allocates
// nothing per push. Unbounded queues keep the deque.
//
// Chunked lanes: LaneItem<T> is the queue element of a chunked lane — one
// slot carries EITHER a whole pooled chunk (a pointer handoff, the morsel
// fast path) OR a single StreamElement (punctuations, and per-tuple mode).
// With chunking enabled a bounded capacity therefore counts *items*
// (chunks/punctuations), not tuples.

#ifndef STREAMSI_STREAM_QUEUE_H_
#define STREAMSI_STREAM_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <new>
#include <optional>
#include <thread>

#include "stream/operator.h"

namespace streamsi {

/// What a producer does when the queue is full.
enum class BackpressurePolicy : unsigned char {
  kBlock = 0,       ///< wait until the consumer made room (lossless)
  kDropNewest = 1,  ///< reject the incoming element (lossy, non-blocking)
};

/// Outcome of BoundedQueue::Push.
enum class PushResult : unsigned char {
  kOk = 0,       ///< enqueued
  kDropped = 1,  ///< rejected: queue full under kDropNewest
  kClosed = 2,   ///< rejected: queue already closed
};

template <typename T>
class BoundedQueue {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();
  /// Largest capacity backed by the preallocated ring (beyond it the
  /// upfront allocation would dwarf the deque's lazy growth).
  static constexpr std::size_t kRingMaxCapacity = std::size_t{1} << 16;

  struct Stats {
    std::uint64_t pushed = 0;   ///< elements accepted
    std::uint64_t dropped = 0;  ///< elements rejected (full or closed)
    std::uint64_t stalls = 0;   ///< producer waits due to a full queue
    std::size_t high_water = 0; ///< maximum observed depth
  };

  /// capacity == 0 (or kUnbounded) means unbounded.
  explicit BoundedQueue(std::size_t capacity = kUnbounded,
                        BackpressurePolicy policy = BackpressurePolicy::kBlock)
      : capacity_(capacity == 0 ? kUnbounded : capacity), policy_(policy) {
    if (capacity_ != kUnbounded && capacity_ <= kRingMaxCapacity) {
      ring_ = static_cast<T*>(::operator new(
          sizeof(T) * capacity_, std::align_val_t(alignof(T))));
    }
  }

  ~BoundedQueue() {
    if (ring_ != nullptr) {
      for (std::size_t i = 0; i < count_; ++i) {
        ring_[(head_ + i) % capacity_].~T();
      }
      ::operator delete(ring_, std::align_val_t(alignof(T)));
    }
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  PushResult Push(T value) {
    return PushImpl(std::move(value),
                    /*lossless=*/policy_ == BackpressurePolicy::kBlock);
  }

  /// Lossless push: waits for room even under kDropNewest. For elements
  /// that must never be dropped while the queue is open — punctuations
  /// carry transaction boundaries and EOS, and losing one desyncs merge
  /// alignment or hangs the consumer's natural-completion join.
  PushResult PushWait(T value) {
    return PushImpl(std::move(value), /*lossless=*/true);
  }

  /// Blocks until an element is available or the queue is closed.
  /// Returns nullopt when closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return Size() > 0 || closed_; });
    if (Size() == 0) return std::nullopt;
    std::optional<T> value;
    if (ring_ != nullptr) {
      T& slot = ring_[head_];
      value.emplace(std::move(slot));
      slot.~T();
      head_ = (head_ + 1) % capacity_;
      --count_;
    } else {
      value.emplace(std::move(deque_.front()));
      deque_.pop_front();
    }
    lock.unlock();
    // Producers only ever wait on a finite capacity; unbounded queues skip
    // the per-element signal.
    if (capacity_ != kUnbounded) not_full_.notify_one();
    return value;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();  // wake producers blocked on a full queue
  }

  bool closed() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return Size();
  }

  std::size_t capacity() const { return capacity_; }

  Stats stats() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return stats_;
  }

 private:
  std::size_t Size() const {
    return ring_ != nullptr ? count_ : deque_.size();
  }

  PushResult PushImpl(T value, bool lossless) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) {
      ++stats_.dropped;
      return PushResult::kClosed;
    }
    if (Size() >= capacity_) {
      if (!lossless) {
        ++stats_.dropped;
        return PushResult::kDropped;
      }
      ++stats_.stalls;
      not_full_.wait(lock, [this] { return Size() < capacity_ || closed_; });
      if (closed_) {
        ++stats_.dropped;
        return PushResult::kClosed;
      }
    }
    if (ring_ != nullptr) {
      new (&ring_[(head_ + count_) % capacity_]) T(std::move(value));
      ++count_;
    } else {
      deque_.push_back(std::move(value));
    }
    ++stats_.pushed;
    if (Size() > stats_.high_water) stats_.high_water = Size();
    lock.unlock();
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  const std::size_t capacity_;
  const BackpressurePolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> deque_;    ///< unbounded / oversized capacities
  T* ring_ = nullptr;      ///< bounded: preallocated ring storage
  std::size_t head_ = 0;   ///< ring: index of the front element
  std::size_t count_ = 0;  ///< ring: live element count
  Stats stats_;
  bool closed_ = false;
};

/// One slot of a chunked lane queue: a whole pooled chunk OR a single
/// element (punctuations always travel as elements — §3 boundaries are
/// never buried inside a chunk).
template <typename T>
struct LaneItem {
  LaneItem() = default;
  explicit LaneItem(ChunkRef<T> chunk_arg) : chunk(std::move(chunk_arg)) {}
  explicit LaneItem(StreamElement<T> element_arg)
      : element(std::move(element_arg)) {}

  bool is_chunk() const { return static_cast<bool>(chunk); }

  ChunkRef<T> chunk;
  std::optional<StreamElement<T>> element;
};

/// Shared consumer protocol for queue-fed operator chains (QueueHandoff,
/// PartitionBy lanes): re-publishes queued elements on the calling thread
/// until EOS or close, then upholds the close barrier — the queue is
/// closed so a producer racing the exit gets kClosed instead of feeding a
/// consumerless queue (or blocking forever in PushWait on a full one) —
/// and synthesizes the EOS a close rejected, because the downstream chain
/// (merge alignment, WaitForEos, ToTable's EOS flush) keys its own
/// shutdown off it.
template <typename T>
void DrainQueueInto(BoundedQueue<StreamElement<T>>& queue, Publisher<T>& out,
                    std::atomic<std::uint64_t>& data_count) {
  bool saw_eos = false;
  while (auto element = queue.Pop()) {
    if (element->is_data()) {
      data_count.fetch_add(1, std::memory_order_relaxed);
    }
    out.Publish(*element);
    if (element->is_punctuation() &&
        element->punctuation() == Punctuation::kEndOfStream) {
      saw_eos = true;
      break;
    }
  }
  queue.Close();
  if (!saw_eos) {
    out.Publish(StreamElement<T>(Punctuation::kEndOfStream));
  }
}

/// Chunk-aware drain: same close-barrier/EOS protocol over a LaneItem
/// queue. A chunk slot is re-published as ONE PublishChunk call (the
/// pooled chunk returns to its pool when the item dies); element slots
/// follow the per-tuple path.
template <typename T>
void DrainLaneQueueInto(BoundedQueue<LaneItem<T>>& queue, Publisher<T>& out,
                        std::atomic<std::uint64_t>& data_count) {
  bool saw_eos = false;
  while (auto item = queue.Pop()) {
    if (item->is_chunk()) {
      data_count.fetch_add(item->chunk->size(), std::memory_order_relaxed);
      out.PublishChunk(item->chunk->view());
      continue;
    }
    const StreamElement<T>& element = *item->element;
    if (element.is_data()) {
      data_count.fetch_add(1, std::memory_order_relaxed);
    }
    out.Publish(element);
    if (element.is_punctuation() &&
        element.punctuation() == Punctuation::kEndOfStream) {
      saw_eos = true;
      break;
    }
  }
  queue.Close();
  if (!saw_eos) {
    out.Publish(StreamElement<T>(Punctuation::kEndOfStream));
  }
}

/// Decouples a producer chain from a consumer chain: enqueues upstream
/// elements and re-publishes them on a dedicated thread. Chunked upstreams
/// stay chunked across the handoff: an incoming ChunkView is copied into a
/// pooled chunk (the view dies with the upstream call) and crosses the
/// queue as one item. Under kDropNewest the drop granularity is the queue
/// item — a full queue sheds a whole chunk.
template <typename T>
class QueueHandoff : public OperatorBase, public Publisher<T> {
 public:
  struct Options {
    std::size_t queue_capacity = BoundedQueue<LaneItem<T>>::kUnbounded;
    BackpressurePolicy policy = BackpressurePolicy::kBlock;
  };

  explicit QueueHandoff(Publisher<T>* input, Options options = {})
      : queue_(options.queue_capacity, options.policy),
        pool_(ChunkPool<T>::Create()) {
    input->SubscribeWith(
        [this](const StreamElement<T>& e) {
          // Punctuations are never load-sheddable: dropping an EOS would
          // hang the natural-completion join, dropping a boundary tears
          // batches.
          if (e.is_punctuation()) {
            (void)queue_.PushWait(LaneItem<T>(e));
          } else {
            (void)queue_.Push(LaneItem<T>(e));
          }
        },
        [this](const ChunkView<T>& view) {
          if (view.empty()) return;
          ChunkRef<T> chunk = pool_->Acquire(view.size());
          chunk->AppendView(view);
          chunks_in_.fetch_add(1, std::memory_order_relaxed);
          chunk_tuples_in_.fetch_add(view.size(), std::memory_order_relaxed);
          (void)queue_.Push(LaneItem<T>(std::move(chunk)));
        });
  }

  ~QueueHandoff() override {
    Stop();
    Join();
  }

  void Start() override {
    if (started_) return;  // idempotent, also after Join()
    started_ = true;
    thread_ =
        std::thread([this] { DrainLaneQueueInto(queue_, *this, elements_); });
  }

  void Stop() override { queue_.Close(); }

  void Join() override {
    if (thread_.joinable()) thread_.join();
  }

  std::string_view name() const override { return "QueueHandoff"; }

  OperatorStats stats() const override {
    const auto q = queue_.stats();
    OperatorStats s;
    s.elements = elements_.load(std::memory_order_relaxed);
    s.queue_depth = queue_.size();
    s.stalls = q.stalls;
    s.dropped = q.dropped;
    s.chunks = chunks_in_.load(std::memory_order_relaxed);
    s.chunk_tuples = chunk_tuples_in_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  BoundedQueue<LaneItem<T>> queue_;
  std::shared_ptr<ChunkPool<T>> pool_;
  std::thread thread_;
  bool started_ = false;
  std::atomic<std::uint64_t> elements_{0};
  std::atomic<std::uint64_t> chunks_in_{0};
  std::atomic<std::uint64_t> chunk_tuples_in_{0};
};

}  // namespace streamsi

#endif  // STREAMSI_STREAM_QUEUE_H_
