#include "txn/protocol.h"

#include <algorithm>
#include <unordered_map>

#include "common/small_vec.h"

#include "txn/bocc_protocol.h"
#include "txn/s2pl_protocol.h"
#include "txn/si_protocol.h"

namespace streamsi {

Timestamp ConcurrencyProtocol::SnapshotFor(Transaction& txn,
                                           VersionedStore& store) {
  // Cache the derived per-state snapshot in the transaction so the hot
  // read path avoids the group registry.
  if (auto cached = txn.CachedSnapshot(store.id()); cached.has_value()) {
    return *cached;
  }
  const Timestamp snapshot =
      context_->PinReadCtsForState(txn.slot(), store.id());
  txn.CacheSnapshot(store.id(), snapshot);
  return snapshot;
}

Status ConcurrencyProtocol::Apply(Transaction& txn, VersionedStore& store,
                                  Timestamp commit_ts, GcFloor& floor) {
  return ApplyWriteSet(txn, store, commit_ts, floor);
}

Status ConcurrencyProtocol::ApplyWriteSet(Transaction& txn,
                                          VersionedStore& store,
                                          Timestamp commit_ts,
                                          GcFloor& floor) {
  const WriteSet* ws = txn.FindWriteSet(store.id());
  if (ws == nullptr || ws->empty()) return Status::OK();

  // The dirty array keeps one (current) entry per key, in first-touch
  // order.
  const auto& entries = ws->entries();
  constexpr std::size_t kPrefetchAhead = 8;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // Start the version-array miss of the key kPrefetchAhead installs
    // ahead, so it overlaps the installs in between.
    if (i + kPrefetchAhead < entries.size() &&
        entries[i + kPrefetchAhead].commit_hint != nullptr) {
      store.PrefetchForApply(entries[i + kPrefetchAhead].commit_hint);
    }
    const auto& entry = entries[i];
    // SI's validate phase stashed the resolved store entry on each
    // write-set entry; installing through it skips the per-key probe.
    // Protocols that don't resolve handles (S2PL/BOCC) take the key path.
    if (entry.commit_hint != nullptr) {
      STREAMSI_RETURN_NOT_OK(store.ApplyCommitted(
          entry.commit_hint, entry.value, entry.is_delete, commit_ts, floor));
    } else {
      STREAMSI_RETURN_NOT_OK(store.ApplyCommitted(
          entry.key, entry.value, entry.is_delete, commit_ts, floor));
    }
  }
  return Status::OK();
}

Status ConcurrencyProtocol::ScanWithOverlay(
    Transaction& txn, VersionedStore& store, Timestamp read_ts,
    const std::function<bool(std::string_view, std::string_view)>& callback) {
  const WriteSet* ws = txn.FindWriteSet(store.id());
  if (ws == nullptr || ws->empty()) {
    return store.ScanCommitted(read_ts, callback);
  }
  bool stop = false;
  STREAMSI_RETURN_NOT_OK(store.ScanCommitted(
      read_ts, [&](std::string_view key, std::string_view value) {
        if (ws->Contains(key)) return true;  // emitted from the overlay below
        if (!callback(key, value)) {
          stop = true;
          return false;
        }
        return true;
      }));
  if (stop) return Status::OK();
  // Emit the transaction's own (non-delete) writes.
  ws->ForEachEffective([&](std::string_view key, std::string_view value,
                           bool is_delete) {
    if (stop || is_delete) return;
    if (!callback(key, value)) stop = true;
  });
  return Status::OK();
}

Status ConcurrencyProtocol::ScanRangeWithOverlay(
    Transaction& txn, VersionedStore& store, Timestamp read_ts,
    std::string_view lo, std::string_view hi,
    const std::function<bool(std::string_view, std::string_view)>& callback) {
  const WriteSet* ws = txn.FindWriteSet(store.id());
  if (ws == nullptr || ws->empty()) {
    return store.ScanRangeCommitted(read_ts, lo, hi, callback);
  }
  // Ordered two-way merge: the committed range stream is already sorted;
  // the transaction's own in-range writes (unique per key — the write set
  // is last-write-wins in place) are gathered on the stack and sorted once.
  // Per key the own write wins, and an own delete suppresses the committed
  // row. The overlay holds dirty-array INDICES, not Entry pointers: the
  // committed-scan callback may legally write back into this state (the
  // store blesses that), which can reallocate the entry vector — indices
  // stay stable (entries are append-only, updated in place), and the key
  // views they resolve to are arena-backed, so re-probing per use is safe.
  const auto entry_at = [ws](std::size_t i) -> const WriteSet::Entry& {
    return ws->entries()[i];
  };
  SmallVec<std::size_t, 16> overlay;
  for (std::size_t i = 0; i < ws->entries().size(); ++i) {
    const std::string_view key = ws->entries()[i].key;
    if (key >= lo && (hi.empty() || key < hi)) overlay.push_back(i);
  }
  std::sort(overlay.begin(), overlay.end(),
            [&](std::size_t a, std::size_t b) {
              return entry_at(a).key < entry_at(b).key;
            });
  std::size_t next = 0;
  bool stop = false;
  const auto emit_overlay = [&](std::size_t i) {
    const WriteSet::Entry& entry = entry_at(i);
    if (entry.is_delete) return true;
    return callback(entry.key, entry.value);
  };
  STREAMSI_RETURN_NOT_OK(store.ScanRangeCommitted(
      read_ts, lo, hi, [&](std::string_view key, std::string_view value) {
        while (next < overlay.size() && entry_at(overlay[next]).key < key) {
          if (!emit_overlay(overlay[next++])) {
            stop = true;
            return false;
          }
        }
        if (next < overlay.size() && entry_at(overlay[next]).key == key) {
          // Own write shadows the committed version of this key.
          if (!emit_overlay(overlay[next++])) {
            stop = true;
            return false;
          }
          return true;
        }
        if (!callback(key, value)) {
          stop = true;
          return false;
        }
        return true;
      }));
  if (stop) return Status::OK();
  while (next < overlay.size()) {
    if (!emit_overlay(overlay[next++])) break;
  }
  return Status::OK();
}

std::unique_ptr<ConcurrencyProtocol> MakeProtocol(ProtocolType type,
                                                  StateContext* context) {
  switch (type) {
    case ProtocolType::kMvcc:
      return std::make_unique<SiProtocol>(context);
    case ProtocolType::kS2pl:
      return std::make_unique<S2plProtocol>(context);
    case ProtocolType::kBocc:
      return std::make_unique<BoccProtocol>(context);
  }
  return nullptr;
}

}  // namespace streamsi
