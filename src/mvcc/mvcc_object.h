// MvccObject: the per-key multi-version container of the transactional
// table (paper §4.1, Figure 3).
//
// Each entry follows the classic MVCC layout <[cts, dts], value>: the commit
// timestamp (CTS) and deletion timestamp (DTS) delimit the lifetime of a
// value version. Free slots of the fixed version array are managed through a
// UsedSlots bit vector (a 64-bit word updated with CAS). Only *committed*
// versions ever enter an MvccObject — uncommitted changes live in the
// transaction's write set — so aborts never touch it and no undo is needed.
//
// Old versions are garbage-collected on demand: when a new version must be
// installed and no slot is free, versions no active transaction can see
// (dts <= OldestActiveVersion) are reclaimed (§4.1).
//
// Capacity is adaptive: when on-demand GC frees nothing (a lagging reader
// pin keeps every version visible), Install replaces the slot array with a
// doubled copy — up to the caller's grow limit — instead of failing the
// write. The array is published with a release store and the superseded one
// retired through the EpochManager, exactly the bucket-table-growth
// discipline of the shard index: optimistic readers that loaded the old
// pointer finish their probe on a frozen array and the seqlock validation
// makes them retry.
//
// Synchronization — the seqlock read protocol ("readers mostly only access
// memory", §5.2):
//   * Mutators (Install / MarkDeleted / GarbageCollect / PurgeAfter) run
//     under the owning table's exclusive per-entry latch and additionally
//     bump the object's sequence number to an odd value for the duration of
//     the mutation (WriteSection).
//   * Optimistic readers (TryGetVisible and friends) never take the latch:
//     they read the sequence number, probe the version slots — every shared
//     field is an atomic, so there are no data races — and re-validate the
//     sequence number. An odd or changed sequence means a concurrent mutation
//     interfered; the caller retries (and may eventually fall back to the
//     shared latch for guaranteed progress).
//   * Value payloads are immutable heap buffers published with a release
//     store of the slot's value pointer. Replaced or reclaimed buffers are
//     handed to the EpochManager, so a reader inside an EpochGuard can
//     safely copy a buffer even if the slot was concurrently reused — the
//     sequence validation then rejects the read and the reader retries.

#ifndef STREAMSI_MVCC_MVCC_OBJECT_H_
#define STREAMSI_MVCC_MVCC_OBJECT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/slot_mask.h"
#include "common/status.h"

namespace streamsi {

/// Lifetime header of one value version.
struct VersionHeader {
  Timestamp cts = kInfinityTs;  ///< commit timestamp (creation)
  Timestamp dts = kInfinityTs;  ///< deletion timestamp (kInfinityTs = alive)
};

/// Multi-version container for a single key.
class MvccObject {
 public:
  static constexpr int kDefaultCapacity = 8;

  /// Outcome of one optimistic (latch-free) read attempt.
  enum class ReadResult {
    kHit,    ///< visible version found, *value filled
    kMiss,   ///< validated: no visible version exists
    kRetry,  ///< concurrent mutation interfered; try again
  };

  explicit MvccObject(int capacity = kDefaultCapacity);
  ~MvccObject();

  MvccObject(MvccObject&& other) noexcept;
  MvccObject& operator=(MvccObject&&) = delete;
  MvccObject(const MvccObject&) = delete;

  // ------------------------------------------------ optimistic read path ---
  // Latch-free seqlock reads. Caller must hold an EpochGuard (the value
  // buffer may be retired concurrently). kRetry means writer interference;
  // retry a bounded number of times, then fall back to the latched variants.

  /// One optimistic attempt at the snapshot-visibility rule
  /// (cts <= read_ts < dts).
  ReadResult TryGetVisible(Timestamp read_ts, std::string* value) const;

  // --------------------------------------------------- latched read path ---
  // Stable reads: caller must exclude mutators (shared per-entry latch).

  /// Returns the version visible to a snapshot at `read_ts`
  /// (cts <= read_ts < dts). False if no visible version exists.
  bool GetVisible(Timestamp read_ts, std::string* value) const;

  /// Timestamp of the newest committed *modification* — the max over all
  /// creation timestamps and finite deletion timestamps. This is what the
  /// First-Committer-Wins check must compare against: a committed delete
  /// modifies the key without installing a new version.
  Timestamp LatestModification() const;

  /// True if the newest version is a live (non-deleted) value.
  bool HasLiveVersion() const;

  // ----------------------------------------------------------- mutations ---
  // All mutators require the owning table's exclusive per-entry latch; they
  // bump the seqlock internally so optimistic readers notice.

  /// Installs a new version committed at `commit_ts`; terminates the
  /// previously live version (its dts becomes commit_ts). When no slot is
  /// free, reclaims versions with dts <= the GC watermark first; when that
  /// frees nothing, grows the slot array (doubled, up to `grow_limit`
  /// slots); returns ResourceExhausted only when full at the grow limit
  /// (caller may retry with a larger watermark once readers finish). A
  /// `grow_limit` at or below the current capacity disables growth.
  ///
  /// The watermark is LAZY: `floor` is resolved only when the version array
  /// is actually full — the common commit never pays the transaction-table
  /// scans behind it. Resolution happens before the seqlock write section
  /// opens (the caller's exclusive latch keeps the occupancy stable), so
  /// optimistic readers never spin behind a floor computation.
  Status Install(std::string_view value, Timestamp commit_ts, GcFloor& floor,
                 int grow_limit = 0);

  /// Eager-watermark convenience (tests, bulk load, recovery).
  Status Install(std::string_view value, Timestamp commit_ts,
                 Timestamp oldest_active, int grow_limit = 0) {
    GcFloor floor(oldest_active);
    return Install(value, commit_ts, floor, grow_limit);
  }

  /// Logically deletes the key at `commit_ts`: sets the live version's dts.
  /// NotFound if there is no live version.
  Status MarkDeleted(Timestamp commit_ts);

  /// Reclaims all versions invisible to every transaction with a snapshot
  /// >= oldest_active. Returns the number of reclaimed slots.
  int GarbageCollect(Timestamp oldest_active);

  /// Recovery: drops versions with cts > max_cts (their group commit never
  /// completed) and re-opens dts values pointing past max_cts. Returns the
  /// number of purged versions.
  int PurgeAfter(Timestamp max_cts);

  /// Recovery with exact commit knowledge: drops versions whose cts is
  /// beyond `covered_cts` AND not accepted by `is_committed`; a doomed dts
  /// re-opens its version (the superseding write is being purged). A plain
  /// watermark cannot express this — an aborted commit's cts can sit BELOW
  /// a later logged commit's, and only the exact record set tells them
  /// apart. Returns the number of purged versions.
  int PurgeUncommitted(Timestamp covered_cts,
                       const std::function<bool(Timestamp)>& is_committed);

  /// Issues write prefetches for the first two lines of the version array
  /// (header + the default four slots) an upcoming Install or MarkDeleted
  /// touches. A hint only: no latch, no dereference — a prefetch of an
  /// array retired in the meantime is harmless.
  void PrefetchVersions() const {
    const char* array = reinterpret_cast<const char*>(
        array_.load(std::memory_order_relaxed));
    __builtin_prefetch(array, 1);
    __builtin_prefetch(array + 64, 1);
  }

  /// Number of occupied version slots.
  int VersionCount() const { return used_.Count(); }
  int capacity() const {
    return array_.load(std::memory_order_acquire)->capacity;
  }

  /// Serialization (the checkpoint image inside the base table). Only
  /// versions with cts <= `ceiling` are written, and a dts above it is
  /// written as open: the image shows the object as of the ceiling, and
  /// log replay re-applies everything newer.
  void EncodeTo(std::string* out, Timestamp ceiling = kInfinityTs) const;
  /// Decodes a persisted blob. The version array is sized from the BLOB
  /// (the capacity recorded at encode time), raised to `min_capacity` when
  /// the blob is smaller — never truncated to a configured default, so a
  /// grown object recovers with every persisted version intact.
  static Result<MvccObject> Decode(std::string_view in, int min_capacity);

  /// Test/diagnostic access to raw headers of occupied slots.
  std::vector<VersionHeader> Headers() const;

 private:
  /// An immutable version payload: its length and bytes in ONE allocation.
  /// (A std::string keeps a value past its small-string size in a second,
  /// separately placed heap block: one more dependent cache miss on every
  /// read of the version, and one more allocation per install.)
  class Value {
   public:
    static const Value* Make(std::string_view bytes);
    static void operator delete(void* p) { ::operator delete(p); }
    std::string_view view() const {
      return {reinterpret_cast<const char*>(this + 1), size_};
    }

   private:
    explicit Value(std::size_t size) : size_(size) {}
    const std::size_t size_;
  };

  /// One version slot. cts/dts/value are individually atomic so optimistic
  /// readers race-freely observe them; logical consistency across fields is
  /// enforced by the seqlock, not by the individual orderings.
  struct Slot {
    std::atomic<Timestamp> cts{kInfinityTs};
    std::atomic<Timestamp> dts{kInfinityTs};
    /// Immutable once published; retired through the EpochManager when the
    /// slot is reclaimed or overwritten.
    std::atomic<const Value*> value{nullptr};
  };

  /// The slot storage, published via `array_` with a release store so a
  /// single load hands a reader a capacity and a matching slot block —
  /// loading them from two places could pair a grown capacity with the old
  /// (smaller) allocation and probe out of bounds. Header and slots share
  /// one allocation (the slots trail the header), so a reader reaches a
  /// slot without a second dependent load. Superseded arrays are retired
  /// through the EpochManager (readers drain on the frozen copy); the value
  /// buffers are shared with the successor and owned by whichever array is
  /// current when the object dies.
  struct alignas(Slot) VersionArray {
    static VersionArray* Make(int capacity);
    static void operator delete(void* p) { ::operator delete(p); }
    const int capacity;
    Slot* const slots;

   private:
    explicit VersionArray(int capacity_arg)
        : capacity(capacity_arg), slots(reinterpret_cast<Slot*>(this + 1)) {}
  };

  /// RAII seqlock write section: seq_ odd while a mutation is in flight.
  class WriteSection {
   public:
    explicit WriteSection(const MvccObject& object) : seq_(object.seq_) {
      seq_.fetch_add(1, std::memory_order_release);
    }
    ~WriteSection() { seq_.fetch_add(1, std::memory_order_release); }

   private:
    std::atomic<std::uint32_t>& seq_;
  };

  /// Buffers (and at most one superseded slot array) unlinked during a
  /// mutation, handed to the EpochManager only after the seqlock write
  /// section closes — retiring (and the occasional reclaim sweep it
  /// triggers) must never extend the window in which optimistic readers see
  /// an odd sequence number.
  class RetireList {
   public:
    void Add(const Value* buffer) {
      if (buffer != nullptr) buffers_[count_++] = buffer;
    }
    void AddArray(const VersionArray* array) { array_ = array; }
    ~RetireList();  // retires everything collected

   private:
    const Value* buffers_[AtomicSlotMask::kMaxSlots];
    int count_ = 0;
    const VersionArray* array_ = nullptr;
  };

  /// The seqlock validation protocol, in exactly one place: snapshot the
  /// sequence number, reject in-flight mutations, run the probe, fence, and
  /// revalidate. Every optimistic accessor goes through this helper so the
  /// memory-ordering-critical steps cannot drift apart.
  template <typename ProbeFn>
  ReadResult ValidatedRead(ProbeFn&& probe) const {
    const std::uint32_t before = seq_.load(std::memory_order_acquire);
    if (before & 1u) return ReadResult::kRetry;
    const ReadResult result = probe();
    if (result == ReadResult::kRetry) return result;
    // The acquire fence orders the probe's loads before the revalidation
    // load: an unchanged (even) sequence proves no mutation overlapped.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) != before) {
      return ReadResult::kRetry;
    }
    return result;
  }

  static void CopyValue(const Value* buffer, std::string* value);
  int FindVisibleSlot(const VersionArray& array, Timestamp read_ts) const;
  int FindLiveSlot(const VersionArray& array) const;
  /// GC body shared by GarbageCollect() and Install(); caller already holds
  /// an open WriteSection and flushes `retired` after closing it.
  int GarbageCollectLocked(Timestamp oldest_active, RetireList* retired);
  /// Unlinks and returns the value buffer of `slot`, scrubbing its header.
  const Value* UnlinkSlotValue(const VersionArray& array, int slot);
  /// Publishes a copy of the current array at `new_capacity` (caller holds
  /// the exclusive latch and an open WriteSection) and queues the old one
  /// for epoch retirement. Used slot indices are preserved, so `used_` and
  /// any slot index found before the growth stay valid.
  VersionArray* GrowLocked(int new_capacity, RetireList* retired);

  AtomicSlotMask used_;
  std::atomic<VersionArray*> array_;
  /// Seqlock word: odd = mutation in progress. Mutable so read-only users
  /// can share the object while mutators (holding the exclusive latch)
  /// version it.
  mutable std::atomic<std::uint32_t> seq_{0};
};

}  // namespace streamsi

#ifdef STREAMSI_READ_DEBUG
#include <cstdio>
namespace streamsi {
/// Diagnostic-only: formatted dump of every slot (caller must exclude
/// mutators).
inline std::string DebugDumpObject(const MvccObject& object) {
  std::string out;
  char buf[160];
  const auto headers = object.Headers();
  std::snprintf(buf, sizeof(buf), "versions=%zu cap=%d latest_mod=%llu; ",
                headers.size(), object.capacity(),
                (unsigned long long)object.LatestModification());
  out += buf;
  std::string value;
  for (const VersionHeader& h : headers) {
    const bool vis = object.GetVisible(h.cts, &value);
    std::snprintf(buf, sizeof(buf), "[cts=%llu dts=%llu val@cts='%s'] ",
                  (unsigned long long)h.cts, (unsigned long long)h.dts,
                  vis ? value.c_str() : "?");
    out += buf;
  }
  return out;
}
}  // namespace streamsi
#endif

#endif  // STREAMSI_MVCC_MVCC_OBJECT_H_
