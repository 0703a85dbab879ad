#include "mvcc/mvcc_object.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/coding.h"
#include "common/epoch.h"

namespace streamsi {

const MvccObject::Value* MvccObject::Value::Make(std::string_view bytes) {
  void* memory = ::operator new(sizeof(Value) + bytes.size());
  auto* value = new (memory) Value(bytes.size());
  std::memcpy(static_cast<char*>(memory) + sizeof(Value), bytes.data(),
              bytes.size());
  return value;
}

MvccObject::VersionArray* MvccObject::VersionArray::Make(int capacity) {
  void* memory = ::operator new(sizeof(VersionArray) +
                                sizeof(Slot) * static_cast<std::size_t>(capacity));
  auto* array = new (memory) VersionArray(capacity);
  for (int i = 0; i < capacity; ++i) new (&array->slots[i]) Slot();
  return array;
}

// Minimum capacity is 2: an update must be able to install the new version
// while the still-live predecessor occupies its slot (the predecessor only
// becomes reclaimable after its dts falls behind OldestActiveVersion).
MvccObject::MvccObject(int capacity)
    : array_(VersionArray::Make(
          std::clamp(capacity, 2, AtomicSlotMask::kMaxSlots))) {}

MvccObject::MvccObject(MvccObject&& other) noexcept
    : used_(other.used_.Raw()),
      array_(other.array_.load(std::memory_order_relaxed)),
      seq_(other.seq_.load(std::memory_order_relaxed)) {
  other.array_.store(nullptr, std::memory_order_relaxed);
}

MvccObject::~MvccObject() {
  // The object is being destroyed: no readers may touch it anymore (same
  // contract as deleting the owning store). Buffers already retired through
  // the EpochManager were unlinked (slot pointer nulled) first, and retired
  // slot arrays do not own the buffers they shared with their successor, so
  // nothing is freed twice.
  VersionArray* array = array_.load(std::memory_order_acquire);
  if (array == nullptr) return;
  for (int i = 0; i < array->capacity; ++i) {
    delete array->slots[static_cast<std::size_t>(i)].value.load(
        std::memory_order_acquire);
  }
  delete array;
}

int MvccObject::FindVisibleSlot(const VersionArray& array,
                                Timestamp read_ts) const {
  int best = -1;
  Timestamp best_cts = 0;
  for (int i = 0; i < array.capacity; ++i) {
    if (!used_.IsSet(i)) continue;
    const Slot& slot = array.slots[static_cast<std::size_t>(i)];
    const Timestamp cts = slot.cts.load(std::memory_order_acquire);
    const Timestamp dts = slot.dts.load(std::memory_order_acquire);
    if (cts <= read_ts && read_ts < dts) {
      // At most one version can satisfy this, but be defensive: take the
      // newest matching version.
      if (best == -1 || cts > best_cts) {
        best = i;
        best_cts = cts;
      }
    }
  }
  return best;
}

int MvccObject::FindLiveSlot(const VersionArray& array) const {
  for (int i = 0; i < array.capacity; ++i) {
    if (used_.IsSet(i) &&
        array.slots[static_cast<std::size_t>(i)].dts.load(
            std::memory_order_acquire) == kInfinityTs) {
      return i;
    }
  }
  return -1;
}

// ------------------------------------------------------ optimistic reads ---

/// Copies `*buffer` into `*value` without shrinking capacity (so a reused
/// output string stops allocating once it reaches its high-water mark).
inline void MvccObject::CopyValue(const Value* buffer, std::string* value) {
  if (value != nullptr && buffer != nullptr) {
    const std::string_view bytes = buffer->view();
    value->assign(bytes.data(), bytes.size());
  }
}

MvccObject::ReadResult MvccObject::TryGetVisible(Timestamp read_ts,
                                                 std::string* value) const {
  return ValidatedRead([&]() -> ReadResult {
    // One acquire load pairs capacity with its slot block; a concurrent
    // growth is caught by the sequence validation, and the superseded array
    // stays frozen until the caller's EpochGuard closes.
    const VersionArray& array = *array_.load(std::memory_order_acquire);
    const int slot = FindVisibleSlot(array, read_ts);
    if (slot < 0) return ReadResult::kMiss;
    const Value* buffer =
        array.slots[static_cast<std::size_t>(slot)].value.load(
            std::memory_order_acquire);
    if (buffer == nullptr) return ReadResult::kRetry;  // mid-install slot
    // Copy before validating: the bytes are immutable and the buffer cannot
    // be freed while the caller's EpochGuard pins the epoch, so the copy is
    // safe even if the slot was concurrently reused — validation then
    // discards it.
    CopyValue(buffer, value);
    return ReadResult::kHit;
  });
}

// --------------------------------------------------------- latched reads ---

bool MvccObject::GetVisible(Timestamp read_ts, std::string* value) const {
  const VersionArray& array = *array_.load(std::memory_order_acquire);
  const int slot = FindVisibleSlot(array, read_ts);
  if (slot < 0) return false;
  CopyValue(array.slots[static_cast<std::size_t>(slot)].value.load(
                std::memory_order_acquire),
            value);
  return true;
}

Timestamp MvccObject::LatestModification() const {
  const VersionArray& array = *array_.load(std::memory_order_acquire);
  Timestamp latest = kInitialTs;
  for (int i = 0; i < array.capacity; ++i) {
    if (!used_.IsSet(i)) continue;
    const Slot& slot = array.slots[static_cast<std::size_t>(i)];
    latest = std::max(latest, slot.cts.load(std::memory_order_acquire));
    const Timestamp dts = slot.dts.load(std::memory_order_acquire);
    if (dts != kInfinityTs) latest = std::max(latest, dts);
  }
  return latest;
}

bool MvccObject::HasLiveVersion() const {
  return FindLiveSlot(*array_.load(std::memory_order_acquire)) >= 0;
}

// -------------------------------------------------------------- mutators ---

MvccObject::RetireList::~RetireList() {
  for (int i = 0; i < count_; ++i) {
    EpochManager::Global().Retire(buffers_[i]);
  }
  if (array_ != nullptr) EpochManager::Global().Retire(array_);
}

const MvccObject::Value* MvccObject::UnlinkSlotValue(
    const VersionArray& array, int slot) {
  Slot& target = array.slots[static_cast<std::size_t>(slot)];
  const Value* old =
      target.value.exchange(nullptr, std::memory_order_acq_rel);
  // Scrub the header so a later re-acquisition never observes a stale
  // lifetime (in particular a stale open dts).
  target.cts.store(kInfinityTs, std::memory_order_release);
  target.dts.store(kInfinityTs, std::memory_order_release);
  return old;
}

MvccObject::VersionArray* MvccObject::GrowLocked(int new_capacity,
                                                 RetireList* retired) {
  VersionArray* old = array_.load(std::memory_order_relaxed);
  std::unique_ptr<VersionArray> grown(VersionArray::Make(new_capacity));
  for (int i = 0; i < old->capacity; ++i) {
    if (!used_.IsSet(i)) continue;
    const Slot& src = old->slots[static_cast<std::size_t>(i)];
    Slot& dst = grown->slots[static_cast<std::size_t>(i)];
    dst.cts.store(src.cts.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    dst.dts.store(src.dts.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    dst.value.store(src.value.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
  // Publish the grown array, then retire the old one: readers that loaded
  // the old pointer keep probing a consistent (frozen) copy until their
  // epoch guard closes — the seqlock already forces them to retry the
  // result. The retired array does not own the shared value buffers.
  array_.store(grown.get(), std::memory_order_release);
  retired->AddArray(old);
  return grown.release();
}

Status MvccObject::Install(std::string_view value, Timestamp commit_ts,
                           GcFloor& floor, int grow_limit) {
  // The buffer is built before the write section so the seqlock stays odd
  // for as short as possible; unlinked buffers are retired after it closes
  // (RetireList destructs last) for the same reason.
  std::unique_ptr<const Value> buffer(Value::Make(value));

  VersionArray* array = array_.load(std::memory_order_relaxed);
  // Resolve the (lazy) GC watermark outside the seqlock when the array is
  // full: the caller holds the exclusive per-entry latch, so the occupancy
  // cannot change underneath us, and optimistic readers of this object are
  // not stalled behind the transaction-table scans.
  if (used_.Count() >= array->capacity) (void)floor.Get();

  RetireList retired;
  WriteSection section(*this);
  // Locate the live predecessor BEFORE acquiring a slot: a freshly acquired
  // slot still carries the header of its previous occupant (possibly with an
  // open dts) and must never be mistaken for the live version.
  const int live = FindLiveSlot(*array);
  int slot = used_.Acquire(array->capacity);
  if (slot == AtomicSlotMask::kNoSlot) {
    // On-demand GC (§4.1): reclaim versions invisible to all active txns.
    GarbageCollectLocked(floor.Get(), &retired);
    slot = used_.Acquire(array->capacity);
  }
  if (slot == AtomicSlotMask::kNoSlot) {
    // GC freed nothing — every version is still visible to some snapshot
    // (typically one lagging reader pin). Capacity pressure must not fail
    // the write: double the array, up to the caller's limit.
    const int limit = std::min(grow_limit, AtomicSlotMask::kMaxSlots);
    if (array->capacity < limit) {
      array = GrowLocked(std::min(array->capacity * 2, limit), &retired);
      slot = used_.Acquire(array->capacity);
    }
    if (slot == AtomicSlotMask::kNoSlot) {
      return Status::ResourceExhausted("MVCC version array full");
    }
  }
  // Terminate the previously live version (GC never reclaims it: its dts is
  // still open, so `live` remains valid across the collection above — and
  // growth preserves slot indices).
  if (live >= 0) {
    array->slots[static_cast<std::size_t>(live)].dts.store(
        commit_ts, std::memory_order_release);
  }
  Slot& target = array->slots[static_cast<std::size_t>(slot)];
  target.cts.store(commit_ts, std::memory_order_release);
  target.dts.store(kInfinityTs, std::memory_order_release);
  retired.Add(target.value.exchange(buffer.release(),
                                    std::memory_order_acq_rel));
  return Status::OK();
}

Status MvccObject::MarkDeleted(Timestamp commit_ts) {
  WriteSection section(*this);
  const VersionArray& array = *array_.load(std::memory_order_relaxed);
  const int live = FindLiveSlot(array);
  if (live < 0) return Status::NotFound("delete of non-existing version");
  array.slots[static_cast<std::size_t>(live)].dts.store(
      commit_ts, std::memory_order_release);
  return Status::OK();
}

int MvccObject::GarbageCollectLocked(Timestamp oldest_active,
                                     RetireList* retired) {
  const VersionArray& array = *array_.load(std::memory_order_relaxed);
  int reclaimed = 0;
  for (int i = 0; i < array.capacity; ++i) {
    if (!used_.IsSet(i)) continue;
    const Slot& slot = array.slots[static_cast<std::size_t>(i)];
    const Timestamp dts = slot.dts.load(std::memory_order_acquire);
    // dts <= oldest_active: no active or future snapshot can see it.
    if (dts != kInfinityTs && dts <= oldest_active) {
      retired->Add(UnlinkSlotValue(array, i));
      used_.Release(i);
      ++reclaimed;
    }
  }
  return reclaimed;
}

int MvccObject::GarbageCollect(Timestamp oldest_active) {
  RetireList retired;
  WriteSection section(*this);
  return GarbageCollectLocked(oldest_active, &retired);
}

int MvccObject::PurgeAfter(Timestamp max_cts) {
  return PurgeUncommitted(max_cts, [](Timestamp) { return false; });
}

int MvccObject::PurgeUncommitted(
    Timestamp covered_cts, const std::function<bool(Timestamp)>& is_committed) {
  RetireList retired;
  WriteSection section(*this);
  const VersionArray& array = *array_.load(std::memory_order_relaxed);
  int purged = 0;
  const auto doomed = [&](Timestamp ts) {
    return ts > covered_cts && !is_committed(ts);
  };
  for (int i = 0; i < array.capacity; ++i) {
    if (!used_.IsSet(i)) continue;
    Slot& slot = array.slots[static_cast<std::size_t>(i)];
    if (doomed(slot.cts.load(std::memory_order_acquire))) {
      retired.Add(UnlinkSlotValue(array, i));
      used_.Release(i);
      ++purged;
    } else {
      const Timestamp dts = slot.dts.load(std::memory_order_acquire);
      if (dts != kInfinityTs && doomed(dts)) {
        // The version that superseded this one was purged: it is live again.
        slot.dts.store(kInfinityTs, std::memory_order_release);
      }
    }
  }
  return purged;
}

// --------------------------------------------------------- serialization ---

void MvccObject::EncodeTo(std::string* out, Timestamp ceiling) const {
  const VersionArray& array = *array_.load(std::memory_order_acquire);
  PutVarint32(out, static_cast<std::uint32_t>(array.capacity));
  const auto included = [&](int i) {
    return used_.IsSet(i) &&
           array.slots[static_cast<std::size_t>(i)].cts.load(
               std::memory_order_acquire) <= ceiling;
  };
  std::uint32_t count = 0;
  for (int i = 0; i < array.capacity; ++i) {
    if (included(i)) ++count;
  }
  PutVarint32(out, count);
  for (int i = 0; i < array.capacity; ++i) {
    if (!included(i)) continue;
    const Slot& slot = array.slots[static_cast<std::size_t>(i)];
    const Timestamp dts = slot.dts.load(std::memory_order_acquire);
    PutVarint64(out, slot.cts.load(std::memory_order_acquire));
    PutVarint64(out, dts <= ceiling ? dts : kInfinityTs);
    const Value* buffer = slot.value.load(std::memory_order_acquire);
    PutLengthPrefixed(out,
                      buffer != nullptr ? buffer->view() : std::string_view());
  }
}

Result<MvccObject> MvccObject::Decode(std::string_view in, int min_capacity) {
  const char* p = in.data();
  const char* limit = p + in.size();
  std::uint32_t stored_capacity = 0;
  p = GetVarint32(p, limit, &stored_capacity);
  if (p == nullptr) return Status::Corruption("bad MVCC capacity");
  if (stored_capacity > static_cast<std::uint32_t>(AtomicSlotMask::kMaxSlots)) {
    return Status::Corruption("MVCC capacity exceeds slot-mask width");
  }
  std::uint32_t count = 0;
  p = GetVarint32(p, limit, &count);
  if (p == nullptr) return Status::Corruption("bad MVCC version count");

  // Size from the blob, never down to the configured default: an object
  // that grew past `min_capacity` before it was persisted must come back
  // with room for every version it recorded.
  MvccObject object(
      std::max(min_capacity, static_cast<int>(stored_capacity)));
  if (count > static_cast<std::uint32_t>(object.capacity())) {
    return Status::Corruption("MVCC version count exceeds capacity");
  }
  const VersionArray& array =
      *object.array_.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < count; ++i) {
    Timestamp cts = 0;
    Timestamp dts = 0;
    p = GetVarint64(p, limit, &cts);
    if (p == nullptr) return Status::Corruption("bad MVCC cts");
    p = GetVarint64(p, limit, &dts);
    if (p == nullptr) return Status::Corruption("bad MVCC dts");
    std::string_view value;
    p = GetLengthPrefixed(p, limit, &value);
    if (p == nullptr) return Status::Corruption("bad MVCC value");
    const int slot = object.used_.Acquire(array.capacity);
    Slot& target = array.slots[static_cast<std::size_t>(slot)];
    target.cts.store(cts, std::memory_order_relaxed);
    target.dts.store(dts, std::memory_order_relaxed);
    target.value.store(Value::Make(value), std::memory_order_relaxed);
  }
  return object;
}

std::vector<VersionHeader> MvccObject::Headers() const {
  const VersionArray& array = *array_.load(std::memory_order_acquire);
  std::vector<VersionHeader> result;
  for (int i = 0; i < array.capacity; ++i) {
    if (used_.IsSet(i)) {
      const Slot& slot = array.slots[static_cast<std::size_t>(i)];
      result.push_back(
          VersionHeader{slot.cts.load(std::memory_order_acquire),
                        slot.dts.load(std::memory_order_acquire)});
    }
  }
  return result;
}

}  // namespace streamsi
