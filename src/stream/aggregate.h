// Aggregation operators over window batches and running grouped
// aggregates. Together with ToTable these are the "stateful stream
// operators such as windows or aggregates" whose state becomes a queryable
// table (§3).

#ifndef STREAMSI_STREAM_AGGREGATE_H_
#define STREAMSI_STREAM_AGGREGATE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/window.h"

namespace streamsi {

/// Folds each WindowBatch into one output value.
template <typename T, typename Acc>
class WindowAggregate : public OperatorBase, public Publisher<Acc> {
 public:
  using Folder = std::function<void(Acc&, const T&)>;

  WindowAggregate(Publisher<WindowBatch<T>>* input, Acc init, Folder folder)
      : init_(std::move(init)), folder_(std::move(folder)) {
    input->Subscribe([this](const StreamElement<WindowBatch<T>>& e) {
      if (e.is_data()) {
        Acc acc = init_;
        for (const T& element : e.data().elements) folder_(acc, element);
        this->Publish(StreamElement<Acc>(std::move(acc), e.ts()));
      } else {
        this->Publish(e.template ForwardPunctuation<Acc>());
      }
    });
  }

  std::string_view name() const override { return "WindowAggregate"; }

 private:
  Acc init_;
  Folder folder_;
};

/// Simple numeric summary used by the canned aggregates.
struct NumericSummary {
  std::uint64_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
  }

  double avg() const { return count == 0 ? 0.0 : sum / count; }
};

/// Folds a window of T into a NumericSummary via a value extractor.
template <typename T>
WindowAggregate<T, NumericSummary>* MakeSummaryAggregate(
    Publisher<WindowBatch<T>>* input, std::function<double(const T&)> value) {
  return new WindowAggregate<T, NumericSummary>(
      input, NumericSummary{},
      [value](NumericSummary& acc, const T& element) {
        acc.Add(value(element));
      });
}

/// Per-key running aggregate: emits (key, aggregate) after every update.
///
/// The templated constructor captures the caller's key extractor and folder
/// by value, so both are called inline. All state lives in a flat
/// open-addressed accumulator table (`AccSlot{hash, key, acc}` — ONE random
/// access per tuple); the per-element channel folds into the same slots, so
/// mixed chunk/element delivery never splits state, and `groups()`
/// materializes the map view on demand.
///
/// Each chunk goes through one software-pipelined pass: keys and group
/// hashes are extracted a few tuples ahead of their probe-and-fold (exactly
/// ONE extractor call per tuple), the table slot is prefetched off that
/// hash, and runs of equal keys reuse the resolved slot. The output is the
/// per-tuple engine's exact per-update (key, aggregate) sequence.
template <typename T, typename K, typename Acc>
class GroupedAggregate : public OperatorBase,
                         public Publisher<std::pair<K, Acc>> {
 public:
  template <typename KeyFn, typename FoldFn>
  GroupedAggregate(Publisher<T>* input, KeyFn key, Acc init, FoldFn fold)
      : init_(std::move(init)) {
    static_assert(std::is_invocable_r_v<K, const KeyFn&, const T&>,
                  "KeyFn must map const T& -> K");
    input->SubscribeWith(
        [this, key, fold](const StreamElement<T>& e) {
          OnElement(e, key, fold);
        },
        [this, key, fold](const ChunkView<T>& view) {
          OnChunk(view, key, fold);
        });
  }

  /// Current state of all groups, materialized from the accumulator table
  /// on demand: cheap when nothing changed, one pass over the table after
  /// updates.
  const std::unordered_map<K, Acc>& groups() const {
    if (groups_dirty_) {
      for (const AccSlot& s : index_) {
        if (s.used) groups_.insert_or_assign(s.key, s.acc);
      }
      groups_dirty_ = false;
    }
    return groups_;
  }

  std::string_view name() const override { return "GroupedAggregate"; }

  OperatorStats stats() const override {
    OperatorStats s;
    s.kernel_chunks = chunks_.load(std::memory_order_relaxed);
    s.kernel_tuples_in = tuples_.load(std::memory_order_relaxed);
    s.kernel_tuples_out = s.kernel_tuples_in;  // one update pair per tuple
    s.chunks = s.kernel_chunks;
    return s;
  }

 private:
  /// One group of the flat table: hash + key + live accumulator, all
  /// inline so a probe touches exactly one slot.
  struct AccSlot {
    std::size_t hash = 0;
    K key{};
    Acc acc{};
    bool used = false;
  };

  template <typename KeyFn, typename FoldFn>
  void OnElement(const StreamElement<T>& e, const KeyFn& key,
                 const FoldFn& fold) {
    if (!e.is_data()) {
      this->Publish(e.template ForwardPunctuation<std::pair<K, Acc>>());
      return;
    }
    const K k = key(e.data());
    AccSlot* slot = ProbeOrInsert(k, std::hash<K>{}(k));
    fold(slot->acc, e.data());
    groups_dirty_ = true;
    this->Publish(StreamElement<std::pair<K, Acc>>(
        std::make_pair(slot->key, slot->acc), e.ts()));
  }

  /// Software-pipelined chunk pass. Tuple i+D's key and group hash are
  /// extracted D iterations ahead of its fold and its table slot
  /// prefetched, so the dependent random probe load is already in flight
  /// when the fold reaches it. The accumulator lives inline in the slot,
  /// and a run of equal keys reuses the resolved slot without re-probing.
  template <typename KeyFn, typename FoldFn>
  void OnChunk(const ChunkView<T>& view, const KeyFn& key,
               const FoldFn& fold) {
    const std::size_t n = view.size();
    if (n == 0) return;
    chunks_.fetch_add(1, std::memory_order_relaxed);
    tuples_.fetch_add(n, std::memory_order_relaxed);
    if (!scratch_ || scratch_->capacity() < n) scratch_.emplace(n);
    constexpr std::size_t D = 32;  // pipeline depth (power of two)
    K kq[D];
    std::size_t hq[D];
    T rowq[D];
    Timestamp tsq[D];
    auto [out, out_ts] = scratch_->ResizeForOverwrite(n);
    // The loop body is specialized on density so a selected view loads its
    // selection entry exactly once per tuple and a dense view skips the
    // indirection entirely. The table pointer/capacity live in locals,
    // refreshed only when an insert may have grown the table, so the hot
    // loop never reloads them across the output stores.
    const auto run = [&](auto is_dense) {
      const T* rows = view.data();
      const Timestamp* tss = view.ts_data();
      const std::uint32_t* sel = view.selection();
      const auto stage = [&](std::size_t j) {
        const std::size_t m = j & (D - 1);
        std::size_t base;
        if constexpr (decltype(is_dense)::value) {
          base = j;
        } else {
          base = sel[j];
        }
        rowq[m] = rows[base];
        tsq[m] = tss[base];
        const K k = key(rowq[m]);
        hq[m] = std::hash<K>{}(k);
        kq[m] = k;
      };
      AccSlot* idx = index_.data();
      std::size_t icap = index_.size();
      AccSlot* slot = nullptr;
      // Oversized chunks are processed in L1-friendly blocks so the hot
      // scratch (ring + recent output rows) stays cache-resident whatever
      // the transport chunk size is.
      constexpr std::size_t B = 256;
      for (std::size_t lo = 0; lo < n; lo += B) {
        const std::size_t hi = lo + B < n ? lo + B : n;
        const std::size_t lead = hi - lo < D ? hi : lo + D;
        for (std::size_t j = lo; j < lead; ++j) stage(j);
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t m = i & (D - 1);
          if (slot == nullptr || !(kq[m] == slot->key)) {
            // Inline the overwhelmingly common first-probe hit; collisions,
            // inserts and growth take the out-of-line path.
            AccSlot* first = icap != 0 ? &idx[hq[m] & (icap - 1)] : nullptr;
            if (first != nullptr && first->used && first->hash == hq[m] &&
                first->key == kq[m]) {
              slot = first;
            } else {
              slot = ProbeOrInsert(kq[m], hq[m]);
              idx = index_.data();
              icap = index_.size();
            }
          }
          fold(slot->acc, rowq[m]);
          out[i] = std::make_pair(slot->key, slot->acc);
          out_ts[i] = tsq[m];
          // Refill the consumed ring slot with tuple i+D and start its
          // table slot's load D iterations before the probe needs it.
          if (i + D < hi) {
            stage(i + D);
#if defined(__GNUC__) || defined(__clang__)
            if (icap != 0) __builtin_prefetch(&idx[hq[m] & (icap - 1)]);
#endif
          }
        }
      }
    };
    if (view.dense()) {
      run(std::true_type{});
    } else {
      run(std::false_type{});
    }
    groups_dirty_ = true;
    this->PublishChunk(scratch_->view());
  }

  /// Finds `k`'s slot in the open-addressed table, inserting an `init_`
  /// accumulator on a miss (grows at 3/4 load).
  AccSlot* ProbeOrInsert(const K& k, std::size_t h) {
    if (index_.empty() || (index_used_ + 1) * 4 > index_.size() * 3) {
      GrowIndex();
    }
    const std::size_t mask = index_.size() - 1;
    std::size_t pos = h & mask;
    while (true) {
      AccSlot& slot = index_[pos];
      if (!slot.used) {
        slot.used = true;
        slot.hash = h;
        slot.key = k;
        slot.acc = init_;
        ++index_used_;
        return &slot;
      }
      if (slot.hash == h && slot.key == k) return &slot;
      pos = (pos + 1) & mask;
    }
  }

  void GrowIndex() {
    const std::size_t cap = index_.empty() ? 1024 : index_.size() * 2;
    std::vector<AccSlot> old = std::move(index_);
    index_.assign(cap, AccSlot{});
    const std::size_t mask = cap - 1;
    for (AccSlot& s : old) {
      if (!s.used) continue;
      std::size_t pos = s.hash & mask;
      while (index_[pos].used) pos = (pos + 1) & mask;
      index_[pos] = std::move(s);
    }
  }

  Acc init_;
  std::vector<AccSlot> index_;  ///< accumulator table: the operator's state
  std::size_t index_used_ = 0;
  /// Lazily materialized view of index_, served by groups().
  mutable std::unordered_map<K, Acc> groups_;
  mutable bool groups_dirty_ = false;
  std::optional<Chunk<std::pair<K, Acc>>> scratch_;  ///< delivering-thread only
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> tuples_{0};
};

}  // namespace streamsi

#endif  // STREAMSI_STREAM_AGGREGATE_H_
