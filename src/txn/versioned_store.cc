#include "txn/versioned_store.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <functional>
#include <new>

#include "common/logging.h"
#include "common/small_vec.h"

namespace streamsi {

// ---------------------------------------------------------- ordered index ---

VersionedStore::OrderedIndex::OrderedIndex() {
  head_ = NewNode(nullptr, kMaxHeight);
}

VersionedStore::OrderedIndex::~OrderedIndex() {
  Node* node = head_;
  while (node != nullptr) {
    Node* next = node->Next(0);
    node->~Node();
    std::free(node);
    node = next;
  }
}

VersionedStore::OrderedIndex::Node* VersionedStore::OrderedIndex::NewNode(
    Entry* entry, int height) {
  const std::size_t size =
      sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1);
  void* mem = std::malloc(size);
  Node* node = new (mem) Node();
  node->entry.store(entry, std::memory_order_relaxed);
  node->height = height;
  for (int i = 0; i < height; ++i) node->SetNext(i, nullptr);
  return node;
}

int VersionedStore::OrderedIndex::RandomHeight() {
  std::lock_guard<SpinLock> guard(rng_lock_);
  int height = 1;
  while (height < kMaxHeight && (rng_.Next() & 3) == 0) ++height;
  return height;
}

VersionedStore::OrderedIndex::Node*
VersionedStore::OrderedIndex::FindGreaterOrEqual(std::string_view key,
                                                 Node** prev) const {
  Node* node = head_;
  int level = max_height_.load(std::memory_order_acquire) - 1;
  for (;;) {
    Node* next = node->Next(level);
    if (next != nullptr && next->key() < key) {
      node = next;
    } else {
      if (prev != nullptr) prev[level] = node;
      if (level == 0) return next;
      --level;
    }
  }
}

void VersionedStore::OrderedIndex::InsertOrRepoint(Entry* entry) {
  const std::string_view key = entry->key;
  for (;;) {
    // Pre-fill every level with head_: FindGreaterOrEqual only writes
    // prev[0..L) for the max_height_ it observed, and a concurrent insert
    // (from another shard's creator) may raise max_height_ between that
    // load and ours below — the upper-level linking loop re-walks forward
    // from prev[level], so head_ is a correct conservative start for any
    // level the search never touched.
    Node* prev[kMaxHeight];
    for (int i = 0; i < kMaxHeight; ++i) prev[i] = head_;
    Node* found = FindGreaterOrEqual(key, prev);
    if (found != nullptr && found->key() == key) {
      // Warm-reload swap: the key keeps its node, the node gets the
      // replacement entry. Readers mid-probe on the old entry are safe —
      // superseded entries are immortal (the shard graveyard owns them).
      found->entry.store(entry, std::memory_order_release);
      return;
    }

    const int height = RandomHeight();
    int cur_max = max_height_.load(std::memory_order_relaxed);
    while (height > cur_max &&
           !max_height_.compare_exchange_weak(cur_max, height,
                                              std::memory_order_acq_rel)) {
    }

    Node* node = NewNode(entry, height);
    // Link bottom level first with CAS; a concurrent insert from another
    // shard's creator may have raced us into this spot — retry from scratch.
    node->SetNext(0, found);
    if (!prev[0]->CasNext(0, found, node)) {
      node->~Node();
      std::free(node);
      continue;
    }

    // Upper levels are best-effort: a failed CAS leaves the node reachable
    // via level 0, which preserves correctness.
    for (int level = 1; level < height; ++level) {
      for (;;) {
        Node* next = prev[level]->Next(level);
        if (next != nullptr && next->key() < key) {
          Node* p = prev[level];
          while (true) {
            Node* n = p->Next(level);
            if (n == nullptr || n->key() >= key) break;
            p = n;
          }
          prev[level] = p;
          continue;
        }
        node->SetNext(level, next);
        if (prev[level]->CasNext(level, next, node)) break;
      }
    }
    return;
  }
}

VersionedStore::VersionedStore(StateId id, std::string name,
                               std::unique_ptr<TableBackend> backend,
                               const StoreOptions& options)
    : id_(id),
      name_(std::move(name)),
      backend_(std::move(backend)),
      options_(options),
      shards_(kShards) {}

VersionedStore::~VersionedStore() {
  // Drop bucket tables / value buffers this store retired (entries and
  // current tables are freed by the shard destructors directly — no reader
  // may be active at this point). Freeing needs the epoch to advance twice
  // past the retire epoch, hence multiple passes; bounded, because other
  // stores' readers may legitimately pin the epoch.
  EpochManager& manager = EpochManager::Global();
  for (int i = 0; i < 3 && manager.GarbageCount() > 0; ++i) {
    manager.TryReclaim();
  }
}

// ------------------------------------------------------------ shard index ---

VersionedStore::Entry* VersionedStore::FindEntry(std::string_view key,
                                                 std::size_t hash) const {
  const Shard& shard = shards_[ShardIndex(hash)];
  const BucketTable* table = shard.table.load(std::memory_order_acquire);
  for (std::size_t i = hash & table->mask, probes = 0; probes <= table->mask;
       ++probes, i = (i + 1) & table->mask) {
    Entry* entry = table->buckets[i].load(std::memory_order_acquire);
    if (entry == nullptr) return nullptr;  // no deletions => probe ends here
    if (entry->hash == hash && entry->key == key) return entry;
  }
  return nullptr;
}

void VersionedStore::PrefetchBucket(std::size_t hash) const {
  const BucketTable* table =
      shards_[ShardIndex(hash)].table.load(std::memory_order_acquire);
  __builtin_prefetch(&table->buckets[hash & table->mask]);
}

void VersionedStore::PrefetchEntry(std::size_t hash) const {
  const BucketTable* table =
      shards_[ShardIndex(hash)].table.load(std::memory_order_acquire);
  const Entry* entry =
      table->buckets[hash & table->mask].load(std::memory_order_acquire);
  if (entry == nullptr) return;
  // The probe compares hash + key (first line); Phase C then claims
  // commit_owner and reads latest_modification further into the entry.
  const char* bytes = reinterpret_cast<const char*>(entry);
  for (std::size_t offset = 0; offset < sizeof(Entry); offset += 64) {
    __builtin_prefetch(bytes + offset, 1);
  }
}

std::size_t VersionedStore::FindBucketOf(const BucketTable* table,
                                         const Entry* entry) {
  for (std::size_t i = entry->hash & table->mask, probes = 0;
       probes <= table->mask; ++probes, i = (i + 1) & table->mask) {
    if (table->buckets[i].load(std::memory_order_relaxed) == entry) return i;
  }
  return table->capacity;
}

void VersionedStore::InsertEntryLocked(Shard& shard,
                                       std::unique_ptr<Entry> entry) {
  BucketTable* table = shard.table.load(std::memory_order_relaxed);
  if ((shard.size + 1) * 4 > table->capacity * 3) {
    auto* grown = new BucketTable(table->capacity * 2);
    for (std::size_t i = 0; i < table->capacity; ++i) {
      Entry* existing = table->buckets[i].load(std::memory_order_relaxed);
      if (existing == nullptr) continue;
      std::size_t j = existing->hash & grown->mask;
      while (grown->buckets[j].load(std::memory_order_relaxed) != nullptr) {
        j = (j + 1) & grown->mask;
      }
      grown->buckets[j].store(existing, std::memory_order_relaxed);
    }
    // Publish the grown table, then retire the old one: readers that loaded
    // the old pointer keep probing a consistent (frozen) table until their
    // epoch guard closes.
    shard.table.store(grown, std::memory_order_release);
    EpochManager::Global().Retire(table);
    table = grown;
  }
  Entry* raw = entry.get();
  std::size_t i = raw->hash & table->mask;
  while (table->buckets[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & table->mask;
  }
  shard.entries.push_back(std::move(entry));
  ++shard.size;
  table->buckets[i].store(raw, std::memory_order_release);
  key_count_.fetch_add(1, std::memory_order_relaxed);
  // Ordered-index maintenance rides the entry-creation path (this shard's
  // latch is held; creators in other shards insert concurrently, which the
  // index's CAS insert tolerates). Point reads and the commit fast path for
  // existing keys never touch the index.
  ordered_index_.InsertOrRepoint(raw);
}

VersionedStore::Entry* VersionedStore::GetOrCreateEntry(std::string_view key) {
  const std::size_t hash = HashKey(key);
  {
    EpochGuard guard;
    if (Entry* entry = FindEntry(key, hash)) return entry;
  }
  Shard& shard = shards_[ShardIndex(hash)];
  ExclusiveGuard guard(shard.latch);
  // Re-probe under the latch: another writer may have inserted the key
  // between our optimistic miss and latch acquisition. No epoch guard is
  // needed — the latch excludes table replacement.
  if (Entry* entry = FindEntry(key, hash)) return entry;
  auto entry =
      std::make_unique<Entry>(std::string(key), hash, options_.mvcc_slots);
  Entry* raw = entry.get();
  InsertEntryLocked(shard, std::move(entry));
  return raw;
}

// -------------------------------------------------------------- read path ---

Status VersionedStore::ReadCommitted(Timestamp read_ts, std::string_view key,
                                     std::string* value) const {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  EpochGuard epoch_guard;
  const Entry* entry = FindEntry(key, HashKey(key));
  if (entry != nullptr &&
      ReadOptimistic(
          entry,
          [&] { return entry->object.TryGetVisible(read_ts, value); },
          [&] { return entry->object.GetVisible(read_ts, value); }) ==
          MvccObject::ReadResult::kHit) {
    return Status::OK();
  }
  stats_.read_misses.fetch_add(1, std::memory_order_relaxed);
  return Status::NotFound();
}

Timestamp VersionedStore::LatestModification(std::string_view key) const {
  EpochGuard epoch_guard;
  const Entry* entry = FindEntry(key, HashKey(key));
  if (entry == nullptr) return kInitialTs;
  return entry->latest_modification.load(std::memory_order_acquire);
}

Status VersionedStore::ScanCommitted(
    Timestamp read_ts,
    const std::function<bool(std::string_view, std::string_view)>& callback)
    const {
  stats_.scans.fetch_add(1, std::memory_order_relaxed);
  std::string value;
  // Copy entry pointers out in fixed-size batches under the shared shard
  // latch (inserts are exclusive, and the entries vector is append-only, so
  // index-based resume is stable), then release it before probing versions
  // or invoking the callback. Entries are owned by the shard until the
  // store dies, so the raw pointers outlive the latch — and a callback that
  // writes back into this store (GetOrCreateEntry takes the same latch
  // exclusively) cannot self-deadlock. The stack batch keeps the scan
  // zero-allocation. The epoch is pinned only around each version probe —
  // never across the user callback, which could run long and stall
  // reclamation store-wide.
  constexpr std::size_t kBatch = 64;
  const Entry* batch[kBatch];
  for (const Shard& shard : shards_) {
    // Bound the scan by the shard's size at entry: keys the callback
    // appends to THIS shard are not visited (else a callback that derives a
    // new key from every visited one could extend the scan forever).
    std::size_t limit;
    {
      SharedGuard shard_guard(shard.latch);
      limit = shard.entries.size();
    }
    std::size_t next = 0;
    while (next < limit) {
      std::size_t filled = 0;
      {
        SharedGuard shard_guard(shard.latch);
        while (filled < kBatch && next < limit) {
          batch[filled++] = shard.entries[next++].get();
        }
      }
      for (std::size_t i = 0; i < filled; ++i) {
        const Entry* entry = batch[i];
        bool visible;
        {
          EpochGuard epoch_guard;
          visible = ReadOptimistic(
                        entry,
                        [&] { return entry->object.TryGetVisible(read_ts,
                                                                 &value); },
                        [&] { return entry->object.GetVisible(read_ts,
                                                              &value); }) ==
                    MvccObject::ReadResult::kHit;
        }
        if (visible && !callback(entry->key, value)) return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status VersionedStore::ScanRangeCommitted(
    Timestamp read_ts, std::string_view lo, std::string_view hi,
    const std::function<bool(std::string_view, std::string_view)>& callback)
    const {
  stats_.scans.fetch_add(1, std::memory_order_relaxed);
  std::string value;
  // The traversal itself takes no latch and pins no epoch: index nodes are
  // never unlinked or freed before the store dies, and the Entry a node
  // points at (even a superseded one) is likewise immortal. Only the
  // version probe pins the epoch — MvccObject slot arrays are reclaimed
  // through it on growth — and the user callback runs with nothing held,
  // so it may write back into this store (even create keys) safely.
  const OrderedIndex::Node* node = ordered_index_.Seek(lo);
  while (node != nullptr) {
    const Entry* entry = node->entry.load(std::memory_order_acquire);
    const std::string_view key = entry->key;
    if (!hi.empty() && key >= hi) break;
    bool visible;
    {
      EpochGuard epoch_guard;
      visible =
          ReadOptimistic(
              entry,
              [&] { return entry->object.TryGetVisible(read_ts, &value); },
              [&] { return entry->object.GetVisible(read_ts, &value); }) ==
          MvccObject::ReadResult::kHit;
    }
    if (visible && !callback(key, value)) return Status::OK();
    node = node->Next(0);
  }
  return Status::OK();
}

// ------------------------------------------------------------ commit path ---

Status VersionedStore::LockForCommit(std::string_view key, TxnId txn,
                                     EntryHandle* handle) {
  Entry* entry = GetOrCreateEntry(key);
  if (handle != nullptr) *handle = entry;
  TxnId expected = 0;
  if (entry->commit_owner.compare_exchange_strong(
          expected, txn, std::memory_order_acq_rel)) {
    return Status::OK();
  }
  if (expected == txn) return Status::OK();  // re-entrant
  return Status::Conflict("key is being committed by txn " +
                          std::to_string(expected));
}

Status VersionedStore::LockForCommitBatch(CommitLockRequest* requests,
                                          std::size_t count, TxnId txn,
                                          Timestamp newer_than,
                                          std::size_t* locked_count) {
  *locked_count = 0;
  if (count == 0) return Status::OK();
  stats_.batch_validates.fetch_add(1, std::memory_order_relaxed);

  // Phase A: resolve every existing entry under ONE epoch pin (the per-key
  // path pins once per key). Write sets cache HashKey(key) per entry, so
  // nothing is re-hashed here either. Each probe is a chain of dependent
  // misses (bucket -> entry); a two-stage group prefetch starts the bucket
  // line of key i + 16 and the entry lines of key i + 8, so by the time
  // key i is probed both are (usually) in cache.
  constexpr std::size_t kBucketAhead = 16;
  constexpr std::size_t kEntryAhead = 8;
  std::size_t misses = 0;
  {
    EpochGuard epoch_guard;
    for (std::size_t i = 0; i < std::min(count, kBucketAhead); ++i) {
      PrefetchBucket(requests[i].hash);
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (i + kBucketAhead < count) {
        PrefetchBucket(requests[i + kBucketAhead].hash);
      }
      if (i + kEntryAhead < count) PrefetchEntry(requests[i + kEntryAhead].hash);
      assert(requests[i].hash == HashKey(requests[i].key));
      requests[i].handle = FindEntry(requests[i].key, requests[i].hash);
      misses += requests[i].handle == nullptr ? 1 : 0;
    }
  }

  // Phase B: create the missing entries, sorted by shard so each shard's
  // exclusive latch is acquired once per batch instead of once per key.
  if (misses > 0) {
    SmallVec<std::uint32_t, 16> miss;
    for (std::size_t i = 0; i < count; ++i) {
      if (requests[i].handle == nullptr) {
        miss.push_back(static_cast<std::uint32_t>(i));
      }
    }
    std::sort(miss.begin(), miss.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return ShardIndex(requests[a].hash) <
                       ShardIndex(requests[b].hash);
              });
    std::size_t pos = 0;
    while (pos < miss.size()) {
      const std::size_t shard_idx = ShardIndex(requests[miss[pos]].hash);
      Shard& shard = shards_[shard_idx];
      ExclusiveGuard guard(shard.latch);
      for (; pos < miss.size() &&
             ShardIndex(requests[miss[pos]].hash) == shard_idx;
           ++pos) {
        CommitLockRequest& req = requests[miss[pos]];
        // Re-probe under the latch: another writer may have created the key
        // since the optimistic miss. No epoch guard is needed — the latch
        // excludes table replacement.
        Entry* entry = FindEntry(req.key, req.hash);
        if (entry == nullptr) {
          auto created = std::make_unique<Entry>(std::string(req.key),
                                                 req.hash,
                                                 options_.mvcc_slots);
          entry = created.get();
          InsertEntryLocked(shard, std::move(created));
        }
        req.handle = entry;
      }
    }
  }

  // Phase C: claim commit ownership and check First-Committer-Wins in
  // request (write-set) order — the observable lock/conflict sequence is
  // identical to the per-key path. Ownership is a try-lock CAS, so the
  // in-order claim cannot deadlock regardless of other batches' orders.
  for (std::size_t i = 0; i < count; ++i) {
    Entry* entry = static_cast<Entry*>(requests[i].handle);
    TxnId expected = 0;
    if (!entry->commit_owner.compare_exchange_strong(
            expected, txn, std::memory_order_acq_rel) &&
        expected != txn) {
      *locked_count = i;  // keys [0, i) hold locks; key i does not
      return Status::Conflict("key is being committed by txn " +
                              std::to_string(expected));
    }
    if (entry->latest_modification.load(std::memory_order_acquire) >
        newer_than) {
      // The FCW-failed key IS locked (and must be released), exactly like
      // the per-key path, which records the lock before the check.
      *locked_count = i + 1;
      return Status::Conflict("first-committer-wins: key '" +
                              std::string(requests[i].key) +
                              "' has a newer committed modification");
    }
  }
  *locked_count = count;
  return Status::OK();
}

void VersionedStore::UnlockCommit(std::string_view key, TxnId txn) {
  EpochGuard epoch_guard;
  Entry* entry = FindEntry(key, HashKey(key));
  if (entry == nullptr) return;
  UnlockCommit(static_cast<EntryHandle>(entry), txn);
}

void VersionedStore::UnlockCommit(EntryHandle handle, TxnId txn) {
  // No epoch pin: the handle is the entry, and entries outlive every
  // transaction (append-only shards, freed only with the store).
  Entry* entry = static_cast<Entry*>(handle);
  TxnId expected = txn;
  entry->commit_owner.compare_exchange_strong(expected, 0,
                                              std::memory_order_acq_rel);
}

Timestamp VersionedStore::LatestModification(EntryHandle handle) const {
  return static_cast<const Entry*>(handle)->latest_modification.load(
      std::memory_order_acquire);
}

Status VersionedStore::InstallWithBackpressure(Entry* entry,
                                               std::string_view value,
                                               Timestamp commit_ts,
                                               GcFloor& floor) {
  // Exponential backoff bounds: short first nap (the lagging reader often
  // just needs to be scheduled once on a loaded box), capped so an idle
  // system spends the budget in a handful of wake-ups. The budget itself is
  // WALL CLOCK, not summed nap requests: the wait hook wakes on any
  // transaction begin/end, so under heavy unrelated churn a nap can return
  // immediately — charging the request would burn the whole budget in
  // microseconds and fail a commit the lagging reader was milliseconds from
  // unblocking.
  constexpr std::uint64_t kFirstNapMicros = 100;
  constexpr std::uint64_t kMaxNapMicros = 10'000;
  // Set lazily on the first exhausted attempt: the steady-state install
  // (slot free or GC makes room) must not pay a clock read it discards.
  std::chrono::steady_clock::time_point deadline{};
  std::uint64_t nap = kFirstNapMicros;
  bool stalled = false;
  for (;;) {
    Status status;
    {
      ExclusiveGuard guard(entry->latch);
      const int versions_before = entry->object.VersionCount();
      const int capacity_before = entry->object.capacity();
      status = entry->object.Install(value, commit_ts, floor,
                                     options_.mvcc_slots_max);
      if (status.ok()) {
        stats_.installs.fetch_add(1, std::memory_order_relaxed);
        const int versions_after = entry->object.VersionCount();
        if (versions_after <= versions_before) {
          // Install succeeded without net growth => on-demand GC reclaimed.
          stats_.gc_reclaimed.fetch_add(
              static_cast<std::uint64_t>(versions_before - versions_after +
                                         1),
              std::memory_order_relaxed);
        }
        if (entry->object.capacity() > capacity_before) {
          stats_.slot_growths.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (!status.IsResourceExhausted()) return status;
    // The array sits at mvcc_slots_max and every version is pinned. A
    // fixed floor can never rise — fail fast (tests/maintenance paths); a
    // refreshable floor rises as soon as the lagging reader's transaction
    // ends, so wait for that — bounded, with the entry latch released so
    // readers and their latched fallback stay live.
    if (!floor.refreshable()) return status;
    const auto now = std::chrono::steady_clock::now();
    if (!stalled) {
      stalled = true;
      stats_.version_wait_stalls.fetch_add(1, std::memory_order_relaxed);
      deadline = now + std::chrono::microseconds(options_.version_wait_micros);
    } else if (now >= deadline) {
      return status;
    }
    const std::uint64_t budget = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now)
            .count());
    floor.Wait(std::min(nap, budget));
    nap = std::min(nap * 2, kMaxNapMicros);
    (void)floor.Refresh();
  }
}

Status VersionedStore::ApplyCommitted(std::string_view key,
                                      std::string_view value, bool is_delete,
                                      Timestamp commit_ts, GcFloor& floor) {
  return ApplyCommitted(static_cast<EntryHandle>(GetOrCreateEntry(key)),
                        value, is_delete, commit_ts, floor);
}

Status VersionedStore::ApplyCommitted(EntryHandle handle,
                                      std::string_view value, bool is_delete,
                                      Timestamp commit_ts, GcFloor& floor) {
  Entry* entry = static_cast<Entry*>(handle);
  if (is_delete) {
    ExclusiveGuard guard(entry->latch);
    const Status status = entry->object.MarkDeleted(commit_ts);
    // Deleting a key that never existed is a no-op, not an error: the
    // stream may carry deletes for already-expired window entries.
    if (!status.ok() && !status.IsNotFound()) return status;
    stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  } else {
    STREAMSI_RETURN_NOT_OK(
        InstallWithBackpressure(entry, value, commit_ts, floor));
  }
  // FCW watermark: every committed modification counts, even a no-op
  // delete (two transactions writing the same key conflict regardless of
  // whether the key existed).
  Timestamp cur = entry->latest_modification.load(std::memory_order_relaxed);
  while (cur < commit_ts &&
         !entry->latest_modification.compare_exchange_weak(
             cur, commit_ts, std::memory_order_acq_rel)) {
  }
  return Status::OK();
}

Status VersionedStore::ReplayCommitted(std::string_view key,
                                       std::string_view value, bool is_delete,
                                       Timestamp commit_ts,
                                       Timestamp oldest_active) {
  Entry* entry = GetOrCreateEntry(key);
  // Replay of one key is single-threaded and in log order, which is the
  // key's cts order (its commit lock is held until the record is durable).
  if (entry->latest_modification.load(std::memory_order_acquire) >=
      commit_ts) {
    return Status::OK();
  }
  GcFloor floor(oldest_active);
  return ApplyCommitted(static_cast<EntryHandle>(entry), value, is_delete,
                        commit_ts, floor);
}

// ------------------------------------------------------------ maintenance ---

std::uint64_t VersionedStore::GarbageCollectAll(Timestamp oldest_active) {
  std::uint64_t reclaimed = 0;
  for (Shard& shard : shards_) {
    // Shared shard latch: blocks inserts (which are exclusive) so the
    // entries vector is stable; concurrent point reads stay latch-free.
    SharedGuard shard_guard(shard.latch);
    for (auto& entry : shard.entries) {
      ExclusiveGuard guard(entry->latch);
      reclaimed += static_cast<std::uint64_t>(
          entry->object.GarbageCollect(oldest_active));
    }
  }
  stats_.gc_reclaimed.fetch_add(reclaimed, std::memory_order_relaxed);
  return reclaimed;
}

Status VersionedStore::WriteCheckpointImages(Timestamp ceiling) {
  std::vector<Entry*> dirty;
  std::string blob;
  for (Shard& shard : shards_) {
    dirty.clear();
    {
      // Shared shard latch only while collecting: backend writes below may
      // wait on LSM admission, and inserts into this shard must not.
      SharedGuard shard_guard(shard.latch);
      for (auto& entry : shard.entries) {
        if (entry->latest_modification.load(std::memory_order_acquire) !=
            entry->checkpointed_ts.load(std::memory_order_relaxed)) {
          dirty.push_back(entry.get());
        }
      }
    }
    for (Entry* entry : dirty) {
      // Read before encoding: a modification landing in between is above
      // the ceiling (every commit at or below it had finished when the cut
      // was taken), so the next checkpoint sees the key dirty again.
      const Timestamp modified =
          entry->latest_modification.load(std::memory_order_acquire);
      blob.clear();
      {
        SharedGuard guard(entry->latch);
        entry->object.EncodeTo(&blob, ceiling);
      }
      STREAMSI_RETURN_NOT_OK(backend_->Put(entry->key, blob, /*sync=*/false));
      entry->checkpointed_ts.store(std::min(modified, ceiling),
                                   std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status VersionedStore::LoadFromBackend() {
  Status load_status = Status::OK();
  const Status scan_status =
      backend_->Scan([&](std::string_view key, std::string_view blob) {
        auto object = MvccObject::Decode(blob, options_.mvcc_slots);
        if (!object.ok()) {
          load_status = object.status();
          return false;
        }
        const std::size_t hash = HashKey(key);
        Shard& shard = shards_[ShardIndex(hash)];
        ExclusiveGuard guard(shard.latch);
        if (Entry* existing = FindEntry(key, hash)) {
          // Key already resident (reload onto a warm store): replace the
          // bucket's entry with the recovered one. The superseded entry
          // moves to the shard's graveyard — kept alive for stale Entry*
          // handles, but invisible to maintenance iteration (scan, GC,
          // MaxCommittedCts must only see reachable state).
          auto entry = std::make_unique<Entry>(std::string(key), hash,
                                               std::move(object).value());
          // Carry live commit ownership across the swap: a transaction that
          // holds the FCW commit lock on the superseded entry must still own
          // the key afterwards (its UnlockCommit will resolve to this
          // entry). The FCW watermark is intentionally NOT carried over —
          // reload semantics roll the key back to the persisted state.
          entry->commit_owner.store(
              existing->commit_owner.load(std::memory_order_acquire),
              std::memory_order_release);
          Entry* raw = entry.get();
          BucketTable* table = shard.table.load(std::memory_order_relaxed);
          const std::size_t bucket = FindBucketOf(table, existing);
          if (bucket < table->capacity) {
            table->buckets[bucket].store(raw, std::memory_order_release);
          }
          for (auto& owned : shard.entries) {
            if (owned.get() == existing) {
              shard.retired_entries.push_back(std::move(owned));
              owned = std::move(entry);
              break;
            }
          }
          // Repoint the key's ordered-index node at the replacement entry
          // so range scans cannot resurrect the superseded version array.
          ordered_index_.InsertOrRepoint(raw);
        } else {
          InsertEntryLocked(shard,
                            std::make_unique<Entry>(std::string(key), hash,
                                                    std::move(object).value()));
        }
        return true;
      });
  STREAMSI_RETURN_NOT_OK(scan_status);
  return load_status;
}

std::uint64_t VersionedStore::PurgeKeyVersionsAfter(std::string_view key,
                                                    Timestamp max_cts) {
  Entry* entry;
  {
    EpochGuard epoch_guard;
    entry = FindEntry(key, HashKey(key));
  }
  if (entry == nullptr) return 0;
  // The failed commit's versions sit above every checkpoint ceiling (it was
  // in flight at any cut taken meanwhile), so no backend image holds them.
  ExclusiveGuard guard(entry->latch);
  const std::uint64_t purged =
      static_cast<std::uint64_t>(entry->object.PurgeAfter(max_cts));
  // Roll the FCW watermark back alongside the purged versions.
  if (entry->latest_modification.load(std::memory_order_relaxed) > max_cts) {
    entry->latest_modification.store(entry->object.LatestModification(),
                                     std::memory_order_release);
  }
  return purged;
}

std::uint64_t VersionedStore::PurgeVersionsAfter(Timestamp max_cts) {
  return PurgeUncommittedVersions(max_cts, [](Timestamp) { return false; });
}

std::uint64_t VersionedStore::PurgeUncommittedVersions(
    Timestamp covered_cts, const std::function<bool(Timestamp)>& is_committed) {
  std::uint64_t purged = 0;
  for (Shard& shard : shards_) {
    SharedGuard shard_guard(shard.latch);
    for (auto& entry : shard.entries) {
      ExclusiveGuard guard(entry->latch);
      purged += static_cast<std::uint64_t>(
          entry->object.PurgeUncommitted(covered_cts, is_committed));
      // Roll the FCW watermark back alongside the purged versions. The
      // purged version was the key's newest modification, so the watermark
      // now differs from the loaded image's checkpointed_ts: the next
      // checkpoint re-images the key. (Until then the image still holds
      // the purged version, and once a later cut covers its timestamp a
      // recovery would keep it as committed data.)
      const Timestamp latest = entry->object.LatestModification();
      if (entry->latest_modification.load(std::memory_order_relaxed) !=
          latest) {
        entry->latest_modification.store(latest, std::memory_order_release);
      }
    }
  }
  return purged;
}

Status VersionedStore::BulkLoad(std::string_view key, std::string_view value) {
  Entry* entry = GetOrCreateEntry(key);
  std::string blob;
  {
    ExclusiveGuard guard(entry->latch);
    STREAMSI_RETURN_NOT_OK(
        entry->object.Install(value, kInitialTs, kInitialTs));
    entry->object.EncodeTo(&blob);
  }
  return backend_->Put(key, blob, /*sync=*/false);
}

#ifdef STREAMSI_READ_DEBUG
std::string VersionedStore::DebugDump(std::string_view key) const {
  EpochGuard epoch_guard;
  const Entry* entry = FindEntry(key, HashKey(key));
  if (entry == nullptr) return "<no entry>";
  SharedGuard guard(entry->latch);
  return DebugDumpObject(entry->object);
}
#endif

std::uint64_t VersionedStore::KeyCount() const {
  return key_count_.load(std::memory_order_relaxed);
}

Timestamp VersionedStore::MaxCommittedCts() const {
  Timestamp max_cts = kInitialTs;
  for (const Shard& shard : shards_) {
    SharedGuard shard_guard(shard.latch);
    for (const auto& entry : shard.entries) {
      SharedGuard guard(entry->latch);
      max_cts = std::max(max_cts, entry->object.LatestModification());
    }
  }
  return max_cts;
}

}  // namespace streamsi
