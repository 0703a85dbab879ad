// Operator plumbing: push-based publish/subscribe, as in PipeFabric where a
// query is a Topology — "a graph where each node is an operator and the
// edges represent their subscribed streams" (§4.1).
//
// Threading model: each source pushes its elements through the downstream
// chain on the source's thread (synchronous calls). Subscriptions must be
// set up before Topology::Start() — Start freezes every publisher, and a
// late Subscribe is refused (it would race the publishing thread's
// unguarded subscriber list).
//
// Chunked delivery: a publisher carries two channels per subscriber — the
// mandatory per-element callback and an optional OnChunk callback. When an
// upstream ships a chunk, subscribers that registered the chunk callback
// get the whole ChunkView in one call; everyone else gets the automatic
// per-tuple fallback (one StreamElement per tuple, in order). Punctuations
// always travel per-element, so the §3 boundary contract is identical on
// both channels.

#ifndef STREAMSI_STREAM_OPERATOR_H_
#define STREAMSI_STREAM_OPERATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "stream/chunk.h"
#include "stream/element.h"

namespace streamsi {

/// Point-in-time diagnostics of one operator (queue-backed operators report
/// depth/backpressure; pure pass-through operators report zeros).
struct OperatorStats {
  std::uint64_t elements = 0;     ///< data elements processed/forwarded
  std::uint64_t queue_depth = 0;  ///< elements currently queued
  std::uint64_t stalls = 0;       ///< producer waits due to backpressure
  std::uint64_t dropped = 0;      ///< elements rejected (drop policy/close)

  // Chunked-execution observability (zero for per-tuple operators).
  std::uint64_t chunk_capacity = 0;  ///< configured tuples/chunk (0 = off)
  std::uint64_t chunks = 0;          ///< chunks flushed/processed
  std::uint64_t chunk_tuples = 0;    ///< data tuples carried inside chunks
  std::uint64_t flush_full = 0;      ///< flushes because the chunk filled
  std::uint64_t flush_boundary = 0;  ///< flushes forced by a punctuation
  std::uint64_t flush_timeout = 0;   ///< flushes forced by linger expiry
  std::uint64_t misaligned = 0;      ///< merge boundary-misalignment recoveries

  // Chunk-loop observability: an operator counts every chunk its tight
  // chunk loop absorbed vs the chunks it had to finish per tuple (ToTable
  // after a failed write), so a silently-degraded path shows up in
  // StatsReport(). Where, Map and GroupedAggregate have one chunk path and
  // report every chunk as a kernel chunk.
  std::uint64_t kernel_chunks = 0;      ///< chunks through the chunk loop
  std::uint64_t fallback_chunks = 0;    ///< chunks finished per tuple
  std::uint64_t kernel_tuples_in = 0;   ///< tuples entering the kernel
  std::uint64_t kernel_tuples_out = 0;  ///< tuples surviving the kernel

  /// Mean occupancy of flushed chunks in [0, 1] (0 when not chunking).
  double chunk_fill_ratio() const {
    if (chunks == 0 || chunk_capacity == 0) return 0.0;
    return static_cast<double>(chunk_tuples) /
           (static_cast<double>(chunks) * static_cast<double>(chunk_capacity));
  }

  /// Fraction of kernel input tuples that survived (1.0 for projections,
  /// the pass rate for filters; 0 when no kernel ran).
  double kernel_selectivity() const {
    if (kernel_tuples_in == 0) return 0.0;
    return static_cast<double>(kernel_tuples_out) /
           static_cast<double>(kernel_tuples_in);
  }

  /// Fraction of chunk deliveries that took the chunk loop.
  double kernel_hit_ratio() const {
    const std::uint64_t total = kernel_chunks + fallback_chunks;
    if (total == 0) return 0.0;
    return static_cast<double>(kernel_chunks) / static_cast<double>(total);
  }

  /// Folds a builder's flush counters into this snapshot.
  void AddChunkCounters(const ChunkBuildStats& build) {
    chunks += build.chunks.load(std::memory_order_relaxed);
    chunk_tuples += build.tuples.load(std::memory_order_relaxed);
    flush_full += build.flush_full.load(std::memory_order_relaxed);
    flush_boundary += build.flush_boundary.load(std::memory_order_relaxed);
    flush_timeout += build.flush_timeout.load(std::memory_order_relaxed);
  }
};

/// Base for all operators so a Topology can own them uniformly.
class OperatorBase {
 public:
  virtual ~OperatorBase() = default;
  /// Called by Topology::Start (sources/lanes spawn their threads here).
  /// Must be idempotent — lifecycle code may retry.
  virtual void Start() {}
  /// Cooperative stop signal. Must be idempotent.
  virtual void Stop() {}
  /// Blocks until the operator finished (sources: thread joined).
  virtual void Join() {}
  virtual std::string_view name() const = 0;
  /// Diagnostics snapshot; safe to call while the topology runs.
  virtual OperatorStats stats() const { return {}; }
};

/// Subscription freeze latch. Topology::Start freezes every publisher it
/// can reach (operators implementing this interface plus PartitionBy's
/// internal lane publishers); a Subscribe after the freeze is REFUSED —
/// the subscriber list is read without a latch on the publishing thread,
/// so a late registration would be a data race, and before this guard it
/// silently was one.
class SubscriptionFreezer {
 public:
  virtual ~SubscriptionFreezer() = default;

  void FreezeSubscriptions() {
    frozen_.store(true, std::memory_order_release);
  }
  bool subscriptions_frozen() const {
    return frozen_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> frozen_{false};
};

/// Typed output port.
template <typename T>
class Publisher : public SubscriptionFreezer {
 public:
  using Subscriber = std::function<void(const StreamElement<T>&)>;
  using ChunkSubscriber = std::function<void(const ChunkView<T>&)>;

  /// Registers a per-element consumer. Not thread-safe; must happen before
  /// Topology::Start() — a frozen publisher refuses the subscription.
  void Subscribe(Subscriber subscriber) {
    SubscribeWith(std::move(subscriber), nullptr);
  }

  /// Registers a consumer with an OnChunk fast path. `subscriber` still
  /// handles every punctuation and any upstream that publishes per-element;
  /// `on_chunk` takes over whole-chunk deliveries (the view is valid only
  /// for the duration of the call).
  void SubscribeWith(Subscriber subscriber, ChunkSubscriber on_chunk) {
    assert(!subscriptions_frozen() && "Subscribe after Topology::Start()");
    if (subscriptions_frozen()) {
      STREAMSI_ERROR("Subscribe after Start() refused: the subscriber list "
                     "is live on the publishing thread");
      return;
    }
    subscribers_.push_back(Entry{std::move(subscriber), std::move(on_chunk)});
  }

  void Publish(const StreamElement<T>& element) {
    for (auto& entry : subscribers_) entry.on_element(element);
  }

  /// Ships a whole chunk: one call per chunk-aware subscriber, automatic
  /// per-tuple fallback for the rest.
  void PublishChunk(const ChunkView<T>& view) {
    for (auto& entry : subscribers_) {
      if (entry.on_chunk) {
        entry.on_chunk(view);
        continue;
      }
      for (std::size_t i = 0; i < view.size(); ++i) {
        entry.on_element(StreamElement<T>(view[i], view.ts(i)));
      }
    }
  }

  std::size_t subscriber_count() const { return subscribers_.size(); }

  /// True when at least one subscriber registered an OnChunk fast path
  /// (producers may use this to skip building chunks nobody consumes).
  bool has_chunk_subscriber() const {
    for (const auto& entry : subscribers_) {
      if (entry.on_chunk) return true;
    }
    return false;
  }

 private:
  struct Entry {
    Subscriber on_element;
    ChunkSubscriber on_chunk;
  };
  std::vector<Entry> subscribers_;
};

}  // namespace streamsi

#endif  // STREAMSI_STREAM_OPERATOR_H_
