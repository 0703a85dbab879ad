// Concurrent skip list over string keys.
//
// Lock-free reads (atomic forward pointers), CAS-based inserts, per-node
// spinlocked value updates. Used both as the ordered in-memory backend and
// as the LSM memtable.

#ifndef STREAMSI_STORAGE_SKIPLIST_H_
#define STREAMSI_STORAGE_SKIPLIST_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/latch.h"
#include "common/random.h"

namespace streamsi {

/// Ordered map string -> (string value | tombstone).
///
/// Nodes are never removed before destruction (tombstones mark deletes), so
/// readers need no reclamation scheme.
class SkipList {
 public:
  static constexpr int kMaxHeight = 16;

  SkipList();
  ~SkipList();
  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Inserts or replaces `key`. `tombstone` records a delete marker.
  void Upsert(std::string_view key, std::string_view value,
              bool tombstone = false);

  /// Looks up `key`. Returns false if absent or tombstoned (tombstoned keys
  /// set *is_tombstone when the pointer is non-null).
  bool Get(std::string_view key, std::string* value,
           bool* is_tombstone = nullptr) const;

  /// Visits entries in key order, including tombstones. Return false from
  /// the callback to stop.
  void Iterate(const std::function<bool(std::string_view key,
                                        std::string_view value,
                                        bool tombstone)>& callback) const;

  /// Number of nodes (tombstones included).
  std::uint64_t NodeCount() const {
    return node_count_.load(std::memory_order_relaxed);
  }

  /// Rough memory footprint used for memtable flush decisions.
  std::uint64_t ApproximateBytes() const {
    return approximate_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    std::string key;
    mutable SpinLock value_lock;
    std::string value;
    bool tombstone = false;
    std::uint32_t version = 0;  // bumped on every value update
    int height;
    std::atomic<Node*> next[1];  // variable-length trailing array

    Node* Next(int level) const {
      return next[level].load(std::memory_order_acquire);
    }
    void SetNext(int level, Node* n) {
      next[level].store(n, std::memory_order_release);
    }
    bool CasNext(int level, Node* expected, Node* n) {
      return next[level].compare_exchange_strong(expected, n,
                                                 std::memory_order_acq_rel);
    }
  };

  static Node* NewNode(std::string_view key, int height);
  int RandomHeight();

  /// Finds the node >= key at each level; fills prev[] with predecessors.
  Node* FindGreaterOrEqual(std::string_view key, Node** prev) const;

  Node* head_;
  std::atomic<int> max_height_{1};
  std::atomic<std::uint64_t> node_count_{0};
  std::atomic<std::uint64_t> approximate_bytes_{0};
  SpinLock rng_lock_;
  Xorshift rng_{0xDECAFBADull};
};

}  // namespace streamsi

#endif  // STREAMSI_STORAGE_SKIPLIST_H_
