#include "core/database.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/env.h"
#include "common/logging.h"
#include "core/commit_record.h"
#include "core/index_key.h"
#include "replication/follower_applier.h"
#include "replication/log_shipper.h"

namespace streamsi {

Database::Database(const DatabaseOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {}

Database::~Database() {
  // Shutdown ordering: replication first — the shipper reads the group log
  // and the applier installs into the stores, so both must stop before
  // anything they touch goes away (the shipper's Stop also drains one last
  // round, so a cleanly closed primary leaves its follower current). Then
  // the background checkpointer (it walks the stores and writes the group
  // log), then the epoch reclaimer reference BEFORE the member destructors
  // tear the stores down. The stores' destructors run their own bounded
  // reclaim passes, and no detached thread may be sweeping epoch garbage
  // during (or after, into static destruction) the teardown of the
  // structures that produce it.
  if (applier_ != nullptr) applier_->Stop();
  {
    std::lock_guard<std::mutex> guard(checkpointer_mutex_);
    stop_checkpointer_ = true;
  }
  checkpointer_cv_.notify_all();
  if (checkpointer_.joinable()) checkpointer_.join();
  if (reclaimer_started_) EpochManager::Global().StopBackgroundReclaimer();
  if (group_log_ != nullptr) group_log_->Close();
  if (catalog_ != nullptr) catalog_->Close();
  // After Close flushed the last buffered records: the shipper's Stop runs
  // a final drain round over the (now complete) on-disk chain.
  if (shipper_ != nullptr) shipper_->Stop();
}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  auto db = std::unique_ptr<Database>(new Database(options));
  db->protocol_ = MakeProtocol(options.protocol, &db->context_);
  if (db->protocol_ == nullptr) {
    return Status::InvalidArgument("unknown protocol");
  }

  const ReplicationRole role = options.replication.role;
  db->follower_mode_ = role == ReplicationRole::kFollower;
  if (db->follower_mode_ && options.base_dir.empty()) {
    return Status::InvalidArgument(
        "replication follower requires base_dir (the shipped chain and the "
        "replayed state tables live there)");
  }
  if (role == ReplicationRole::kPrimary &&
      options.replication.transport == nullptr) {
    return Status::InvalidArgument("replication primary requires a transport");
  }

  // Persistent states log every commit's redo; the sync mode decides only
  // whether the log is fsynced.
  const bool logged = !db->follower_mode_ && !options.base_dir.empty() &&
                      options.backend == BackendType::kLsm;
  if (role == ReplicationRole::kPrimary &&
      (!logged || options.backend_options.sync_mode == SyncMode::kNone)) {
    // An acked-but-volatile commit shipped to a follower would survive the
    // primary while officially never having been durable — refuse the
    // ambiguity up front.
    return Status::InvalidArgument(
        "replication primary requires a durable database "
        "(base_dir + LSM backend + a sync mode)");
  }
  if (!options.base_dir.empty()) {
    STREAMSI_RETURN_NOT_OK(db->env_->CreateDirIfMissing(options.base_dir));
    // A follower opens NO writer over the shipped files: the chain is the
    // transport's to append and the applier's to read.
    if (!db->follower_mode_) {
      db->group_log_ = std::make_unique<GroupCommitLog>(
          options.backend_options.sync_mode,
          options.backend_options.simulated_sync_micros, db->env_);
      STREAMSI_RETURN_NOT_OK(db->group_log_->Open(db->GroupLogPath()));
    }
  }

  Database* raw = db.get();
  db->txn_manager_ = std::make_unique<TransactionManager>(
      &db->context_, db->protocol_.get(),
      [raw](StateId id) { return raw->GetState(id); }, db->group_log_.get(),
      logged);
  // Health hooks: commits consult the admission gate before doing any work
  // (so a degraded database fails them fast, without IO or conflict
  // accounting) and report their IO failures for classification. Reads and
  // scans bypass the gate entirely — a read-only degraded database keeps
  // serving them from the in-memory MVCC state.
  db->txn_manager_->SetHealthHooks(
      [raw] { return raw->AdmitCommit(); },
      [raw](const Status& status) { raw->NoteIoFailure(status); });
  if (options.background_epoch_reclaim) {
    EpochManager::Global().StartBackgroundReclaimer(
        std::chrono::milliseconds(options.epoch_reclaim_interval_ms));
    db->reclaimer_started_ = true;
  }

  // Durable state catalog: rediscover the schema of a previous life and
  // recover before returning — the application does not have to re-issue
  // its CreateState/CreateGroup calls (and a first-time directory simply
  // has an empty catalog).
  if (!options.base_dir.empty() && !db->follower_mode_) {
    db->catalog_ = std::make_unique<StateCatalog>(
        options.backend_options.sync_mode,
        options.backend_options.simulated_sync_micros, db->env_);
    const bool had_catalog = db->env_->FileExists(db->CatalogPath());
    if (had_catalog) STREAMSI_RETURN_NOT_OK(db->ApplyCatalogTail());
    STREAMSI_RETURN_NOT_OK(db->catalog_->Open(db->CatalogPath()));
    if (had_catalog) STREAMSI_RETURN_NOT_OK(db->RecoverInternal());
  }

  if (db->follower_mode_) {
    // A follower's state is rebuilt from the shipped chain ALONE, applied
    // in commit order — never from its backends, whose contents interleave
    // arbitrarily with the stream and would install versions out of order
    // under concurrent readers. The chain is complete from its birth (an
    // unpromoted follower refuses checkpoints, so it never prunes), which
    // also makes a follower restart a plain re-apply.
    STREAMSI_RETURN_NOT_OK(db->ApplyCatalogTail());
    {
      ExclusiveGuard guard(db->stores_latch_);
      db->recovered_ = true;  // reads serve the replayed cut from round one
    }
    FollowerApplier::Hooks hooks;
    hooks.refresh_catalog = [raw] { return raw->ApplyCatalogTail(); };
    hooks.resolve = [raw](StateId id) { return raw->GetState(id); };
    hooks.on_corruption = [raw](const Status& status) {
      raw->TransitionTo(DatabaseHealth::kFailed, status);
    };
    FollowerApplier::Options apply_options;
    apply_options.interval_ms = options.replication.apply_interval_ms;
    apply_options.verify_crc = options.replication.verify_shipped_crc;
    db->applier_ = std::make_unique<FollowerApplier>(
        db->env_, db->GroupLogPath(),
        options.base_dir + "/" + kPrimaryWatermarkFile, &db->context_,
        std::move(hooks), apply_options);
    if (!options.replication.manual_pump) db->applier_->Start();
  } else if (role == ReplicationRole::kPrimary) {
    LogShipper::Options ship_options;
    ship_options.interval_ms = options.replication.ship_interval_ms;
    ship_options.retry_limit = options.replication.ship_retry_limit;
    ship_options.retry_backoff_ms = options.replication.ship_retry_backoff_ms;
    // Constructed BEFORE the checkpointer can run: the shipper pins the
    // log's retain floor, so no checkpoint ever prunes an unshipped
    // segment.
    db->shipper_ = std::make_unique<LogShipper>(
        db->env_, db->group_log_.get(), db->GroupLogPath(), db->CatalogPath(),
        options.replication.transport, &db->context_, ship_options);
    if (!options.replication.manual_pump) db->shipper_->Start();
  }

  if (options.checkpoint_interval_ms > 0 && db->group_log_ != nullptr) {
    db->checkpointer_ = std::thread(&Database::CheckpointLoop, raw);
  }
  return db;
}

std::string Database::StateDir(const std::string& name) const {
  return options_.base_dir + "/state_" + name;
}

Status Database::ApplyCatalogTail() {
  if (!env_->FileExists(CatalogPath())) return Status::OK();
  std::vector<StateCatalog::Declaration> declarations;
  STREAMSI_RETURN_NOT_OK(
      StateCatalog::Replay(CatalogPath(), &declarations, env_));
  // Only the not-yet-applied suffix: on a follower this runs every apply
  // round against a file that keeps growing as catalog chunks ship in.
  for (std::size_t i = catalog_applied_; i < declarations.size(); ++i) {
    const auto& decl = declarations[i];
    if (decl.kind == StateCatalog::Declaration::Kind::kState) {
      auto store = CreateStateInternal(decl.state.name, &decl.state);
      if (!store.ok()) return store.status();
      if ((*store)->id() != decl.state.id) {
        return Status::Corruption("catalog state id mismatch: " +
                                  decl.state.name);
      }
    } else if (decl.kind == StateCatalog::Declaration::Kind::kIndex) {
      // The index's state and its {base, index} group replayed just above
      // (catalog order). The extractor cannot be persisted, so the binding
      // comes back PENDING: write commits on the base refuse until the
      // application re-binds via CreateIndex.
      {
        ExclusiveGuard guard(stores_latch_);
        index_base_[decl.index.index] = decl.index.base;
      }
      txn_manager_->RegisterIndex(decl.index.base, decl.index.index,
                                  /*extractor=*/nullptr);
    } else {
      // Replay reproduces RegisterGroup order, so the assigned id must
      // match the recorded one (both kinds of group: the singleton group a
      // CreateState declared alongside its state, and explicit topologies).
      const GroupId id = context_.RegisterGroup(decl.group.states);
      if (id != decl.group.id) {
        return Status::Corruption("catalog group id mismatch");
      }
      if (decl.group.singleton && !decl.group.states.empty()) {
        ExclusiveGuard guard(stores_latch_);
        singleton_groups_[decl.group.states[0]] = id;
      }
    }
  }
  catalog_applied_ = declarations.size();
  return Status::OK();
}

Result<VersionedStore*> Database::CreateState(const std::string& name) {
  {
    // Idempotent re-declaration (catalog-reopened state or earlier call).
    SharedGuard guard(stores_latch_);
    auto it = stores_by_name_.find(name);
    if (it != stores_by_name_.end()) return stores_[it->second].get();
  }
  if (IsUnpromotedFollower()) {
    // The schema is replicated: a locally declared state would fork the
    // id sequence away from the primary's catalog.
    return Status::Unavailable(
        "follower schema is replicated from the primary; declare the state "
        "there (or Promote() first)");
  }
  return CreateStateInternal(name, nullptr);
}

Result<VersionedStore*> Database::CreateStateInternal(
    const std::string& name, const StateCatalog::StateRecord* declared) {
  const BackendType backend_type =
      declared != nullptr ? declared->backend : options_.backend;
  BackendOptions backend_options = options_.backend_options;
  std::string location;
  if (backend_type == BackendType::kLsm) {
    if (options_.base_dir.empty()) {
      return Status::InvalidArgument("LSM backend requires base_dir");
    }
    // Always under OUR base_dir, never the recorded path: a follower
    // replays the PRIMARY's catalog, whose locations are paths on the
    // primary, and a promoted follower reopens with that same catalog.
    location = StateDir(name);
    backend_options.path = location;
  }
  backend_options.env = env_;
  // Background flush/compaction failures (after the worker's own bounded
  // retries) degrade the whole database: a store that can no longer make
  // its memtables durable must not keep acking commits.
  Database* self = this;
  backend_options.on_background_failure = [self](const Status& status) {
    self->NoteBackgroundFailure(status);
  };
  auto backend = OpenBackend(backend_type, backend_options);
  if (!backend.ok()) return backend.status();

  ExclusiveGuard guard(stores_latch_);
  if (auto it = stores_by_name_.find(name); it != stores_by_name_.end()) {
    // Lost a creation race for the same name: the winner's store is the
    // state. (The transiently opened backend above is dropped unused.)
    return stores_[it->second].get();
  }
  // Ids are assigned under the exclusive latch (Database is the only
  // registrar of its context), so stores_ and the context's registries
  // advance in lockstep and the upcoming ids are known in advance.
  const StateId id = static_cast<StateId>(context_.StateCount());
  if (stores_.size() != id) {
    return Status::Corruption("state registry out of sync with store table");
  }
  if (id >= kMaxStates) {
    return Status::ResourceExhausted("store directory full");
  }

  auto store = std::make_unique<VersionedStore>(
      id, name, std::move(backend).value(), options_.store_options);
  VersionedStore* raw = store.get();

  const bool store_persistent = store->backend()->IsPersistent();
  const bool has_data =
      store_persistent && store->backend()->ApproximateCount() > 0;
  if (declared == nullptr && has_data) {
    // Pre-catalog directory reopened by a re-declaring application (the
    // upgrade path): load inline, as every life before the catalog did.
    // Runs before the catalog append below so that EVERY fallible step
    // precedes it — a failure here leaves no trace anywhere.
    STREAMSI_RETURN_NOT_OK(store->LoadFromBackend());
  }

  // Catalog BEFORE registration: a failed append leaves nothing registered
  // — the caller sees the error, a retry starts from scratch, and the
  // on-disk catalog stays a strict prefix of the in-memory schema (the
  // writer's sticky IO error fails every later declaration loudly too).
  if (declared == nullptr && catalog_ != nullptr) {
    const GroupId gid = static_cast<GroupId>(context_.GroupCount());
    STREAMSI_RETURN_NOT_OK(catalog_->AppendState(
        StateCatalog::StateRecord{id, backend_type, name, location}));
    STREAMSI_RETURN_NOT_OK(catalog_->AppendGroup(
        StateCatalog::GroupRecord{gid, /*singleton=*/true, {id}}));
  }

  if (context_.RegisterState(name, location) != id) {
    return Status::Corruption("state registry out of sync with store table");
  }
  if (declared != nullptr && has_data && !follower_mode_) {
    // Catalog reopen: defer the (possibly large) version-array load to the
    // parallel recovery fan-out. Never on a follower: its state is rebuilt
    // from the shipped chain in commit order, and backend contents would
    // install versions out of order under concurrent readers.
    pending_loads_.push_back(id);
  }
  stores_.push_back(std::move(store));
  PublishStoreLocked(id, raw);
  stores_by_name_[name] = id;

  if (declared == nullptr) {
    // Singleton group: gives single-state queries LastCTS snapshots and the
    // recovery watermark. Registered under the same latch hold as the
    // catalog append above, so replay reproduces the id sequence.
    singleton_groups_[id] = context_.RegisterGroup({id});
    // Declared after recovery already ran (partially-upgraded directory):
    // the inline-loaded images have not been purged against any watermark,
    // and the log records above them have not been replayed — the app's
    // Recover() call must still do both.
    if (recovered_ && store_persistent) post_recovery_loads_.push_back(id);
  }
  return raw;
}

GroupId Database::CreateGroup(const std::vector<StateId>& states) {
  if (IsUnpromotedFollower()) {
    STREAMSI_WARN("follower topology is replicated from the primary; "
                  "CreateGroup refused");
    return kInvalidGroupId;
  }
  ExclusiveGuard guard(stores_latch_);
  // Idempotent re-declaration: an identical explicit topology (same state
  // set) is the same group. Singleton groups are exempt — an explicit
  // one-state group remains distinct from the implicit per-state one.
  std::unordered_set<GroupId> singleton_ids;
  singleton_ids.reserve(singleton_groups_.size());
  for (const auto& [state, gid] : singleton_groups_) {
    (void)state;
    singleton_ids.insert(gid);
  }
  // Same state SET, not sequence: apps routinely rebuild the vector in a
  // different order across restarts.
  std::vector<StateId> wanted = states;
  std::sort(wanted.begin(), wanted.end());
  const std::size_t group_count = context_.GroupCount();
  for (GroupId gid = 0; gid < group_count; ++gid) {
    if (singleton_ids.count(gid) > 0) continue;
    const GroupInfo* info = context_.GetGroup(gid);
    if (info == nullptr) continue;
    std::vector<StateId> existing = info->states;
    std::sort(existing.begin(), existing.end());
    if (existing == wanted) return gid;
  }
  // Catalog BEFORE registration (same discipline as CreateStateInternal):
  // a group the catalog never learned about would make recovery treat its
  // durable commit records as unfinished and purge them. A failed append
  // registers nothing and reports kInvalidGroupId.
  const GroupId id = static_cast<GroupId>(group_count);
  if (catalog_ != nullptr) {
    const Status status = catalog_->AppendGroup(
        StateCatalog::GroupRecord{id, /*singleton=*/false, states});
    if (!status.ok()) {
      STREAMSI_WARN("catalog group append failed: " << status.ToString());
      return kInvalidGroupId;
    }
  }
  if (context_.RegisterGroup(states) != id) {
    STREAMSI_WARN("group registry out of sync with catalog");
  }
  return id;
}

Result<VersionedStore*> Database::CreateIndex(
    const std::string& base_name, const std::string& index_name,
    TransactionManager::IndexKeyExtractor extractor) {
  if (extractor == nullptr) {
    return Status::InvalidArgument(
        "CreateIndex requires an extractor (re-binding after reopen passes "
        "the same function the index was created with)");
  }
  if (options_.protocol != ProtocolType::kMvcc) {
    // Commit-time maintenance writes the index state directly through the
    // transaction's write set, bypassing the baseline protocols' lock
    // acquisition — and index probes are range scans, which they refuse
    // anyway (see ConcurrencyProtocol::ScanRange).
    return Status::NotSupported(
        "secondary indexes require the MVCC protocol");
  }
  if (IsUnpromotedFollower()) {
    return Status::Unavailable(
        "follower schema is replicated from the primary; create the index "
        "there (or Promote() first)");
  }
  VersionedStore* base = FindState(base_name);
  if (base == nullptr) {
    return Status::InvalidArgument("unknown base state: " + base_name);
  }

  VersionedStore* existing = nullptr;
  VersionedStore* orphan = nullptr;
  {
    // Re-bind path (catalog reopen, or a repeated declaration): the index
    // state already exists. Verify it is bound to THIS base, then just
    // refresh the extractor — the index contents recovered with the rest of
    // the database, so there is nothing to backfill.
    SharedGuard guard(stores_latch_);
    auto it = stores_by_name_.find(index_name);
    if (it != stores_by_name_.end()) {
      auto bound = index_base_.find(it->second);
      if (bound != index_base_.end()) {
        if (bound->second != base->id()) {
          return Status::InvalidArgument(
              "state '" + index_name +
              "' is an index over a different base than '" + base_name + "'");
        }
        existing = stores_[it->second].get();
      } else if (stores_[it->second]->KeyCount() == 0) {
        // Adoption path: the state exists, is bound to nothing and holds
        // nothing. Either a crash inside a previous CreateIndex landed
        // after the state (and possibly group) declarations but before the
        // index-binding append — the reopened catalog then shows exactly
        // this — or the application pre-declared an empty state under the
        // index's name. Both are repaired the same way: fall through to
        // the fresh-index tail below, which (idempotently) declares the
        // group, appends the missing binding and backfills.
        orphan = stores_[it->second].get();
      } else {
        // A NON-empty unbound state is application data: backfilling index
        // entries into it would corrupt it, so refuse — and since commits
        // on the base are not deriving maintenance for it, it can never
        // silently pass as an index either.
        return Status::InvalidArgument(
            "state '" + index_name + "' holds data and is not an index over '" +
            base_name + "'; refusing to adopt it as one");
      }
    }
  }
  if (existing != nullptr) {
    txn_manager_->RegisterIndex(base->id(), existing->id(),
                                std::move(extractor));
    return existing;
  }

  // Fresh (or adopted-orphan) index. The state + its singleton group + the
  // {base, index} topology group + the binding append to the catalog in
  // that order, so replay reconstructs the same ids and re-registers the
  // (pending) binding before any recovered commit could touch the base.
  // Each step is idempotent against a catalog prefix a crashed CreateIndex
  // left behind: the state is adopted above, CreateGroup returns an
  // already-declared identical topology without re-appending, and only the
  // genuinely missing records are written.
  VersionedStore* store = orphan;
  if (store == nullptr) {
    auto created = CreateStateInternal(index_name, nullptr);
    if (!created.ok()) return created.status();
    store = *created;
  }
  const GroupId group = CreateGroup({base->id(), store->id()});
  if (group == kInvalidGroupId) {
    return Status::IoError("index group declaration failed (catalog append)");
  }
  if (catalog_ != nullptr) {
    STREAMSI_RETURN_NOT_OK(catalog_->AppendIndex(
        StateCatalog::IndexRecord{store->id(), base->id()}));
  }
  {
    ExclusiveGuard guard(stores_latch_);
    index_base_[store->id()] = base->id();
  }
  // Keep a callable copy: the registered binding owns the moved-in one.
  TransactionManager::IndexKeyExtractor backfill_extract = extractor;
  txn_manager_->RegisterIndex(base->id(), store->id(), std::move(extractor));

  // Backfill from the base's committed snapshot. CreateIndex runs before
  // concurrent writers touch the base (schema declaration time), so the
  // snapshot is the complete base content and BulkLoad's
  // visible-to-everyone versions (cts = kInitialTs) are exactly right.
  std::string composite;
  Status backfill = Status::OK();
  STREAMSI_RETURN_NOT_OK(base->ScanCommitted(
      kInfinityTs - 1, [&](std::string_view key, std::string_view value) {
        const std::string secondary = backfill_extract(key, value);
        if (!ValidIndexSecondary(secondary)) {
          // Same contract check as commit-time maintenance: a 0x00 byte in
          // the secondary would corrupt the composite encoding silently.
          backfill = Status::InvalidArgument(
              "index extractor for state '" + base_name +
              "' emitted a 0x00 byte in the secondary key of base key '" +
              std::string(key) + "' (see core/index_key.h)");
          return false;
        }
        composite.clear();
        AppendIndexKey(&composite, secondary, key);
        backfill = store->BulkLoad(composite, key);
        return backfill.ok();
      }));
  STREAMSI_RETURN_NOT_OK(backfill);
  return store;
}

VersionedStore* Database::GetState(StateId id) {
  if (id >= kMaxStates) return nullptr;
  const std::atomic<VersionedStore*>* chunk =
      directory_[id / kDirectoryChunk].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return chunk[id % kDirectoryChunk].load(std::memory_order_acquire);
}

void Database::PublishStoreLocked(StateId id, VersionedStore* store) {
  std::atomic<std::atomic<VersionedStore*>*>& slot =
      directory_[id / kDirectoryChunk];
  std::atomic<VersionedStore*>* chunk = slot.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    directory_chunks_.push_back(
        std::make_unique<std::atomic<VersionedStore*>[]>(kDirectoryChunk));
    chunk = directory_chunks_.back().get();
    slot.store(chunk, std::memory_order_release);
  }
  chunk[id % kDirectoryChunk].store(store, std::memory_order_release);
}

VersionedStore* Database::FindState(const std::string& name) {
  SharedGuard guard(stores_latch_);
  auto it = stores_by_name_.find(name);
  if (it == stores_by_name_.end()) return nullptr;
  return stores_[it->second].get();
}

Status Database::Recover() {
  std::vector<VersionedStore*> late_loaded;
  {
    ExclusiveGuard guard(stores_latch_);
    if (recovered_) {
      // Open already ran recovery. Only states inline-loaded SINCE then
      // (pre-catalog upgrade of a partially-cataloged directory) still
      // need their purge + clock fast-forward; everything else is done.
      for (StateId id : post_recovery_loads_) {
        if (id < stores_.size()) late_loaded.push_back(stores_[id].get());
      }
      post_recovery_loads_.clear();
      if (late_loaded.empty()) return Status::OK();
    }
  }
  if (!late_loaded.empty()) {
    // These states' groups did not exist when Open's recovery replayed the
    // log, so SetLastCts dropped their entries. Re-replay and max-merge:
    // never roll back a LastCTS this life already advanced (replayed
    // values are from the previous life, below everything the recovered
    // clock hands out).
    GroupCommitLog::ReplayInfo replay_info;
    if (group_log_ != nullptr) {
      auto replayed =
          GroupCommitLog::Replay(GroupLogPath(), &replay_info, env_);
      if (!replayed.ok()) return replayed.status();
      for (const auto& [group, cts] : replayed.value()) {
        if (cts > context_.LastCts(group)) context_.SetLastCts(group, cts);
        context_.clock().AdvanceTo(cts);
      }
    }
    // Clock past everything the images hold, purged versions included (see
    // RecoverInternal); the replayed records are below the group maxima
    // advanced above.
    for (VersionedStore* store : late_loaded) {
      context_.clock().AdvanceTo(store->MaxCommittedCts());
      PurgeRecoveredImage(store, replay_info);
    }
    if (group_log_ != nullptr) {
      STREAMSI_RETURN_NOT_OK(ReplayLogData(replay_info, late_loaded));
    }
    return Status::OK();
  }
  return RecoverInternal();
}

Status Database::RecoverInternal() {
  if (options_.base_dir.empty()) {
    ExclusiveGuard guard(stores_latch_);
    recovered_ = true;
    return Status::OK();
  }

  GroupCommitLog::ReplayInfo replay_info;
  auto replayed = GroupCommitLog::Replay(GroupLogPath(), &replay_info, env_);
  if (!replayed.ok()) return replayed.status();
  if (replay_info.from_checkpoint) {
    STREAMSI_INFO("recovery starting from checkpoint ("
                  << replay_info.segments_replayed << " of "
                  << replay_info.segments_present << " segments, "
                  << replay_info.records << " records)");
  }

  Timestamp max_ts = kInitialTs;
  for (const auto& [group, cts] : replayed.value()) {
    context_.SetLastCts(group, cts);
    max_ts = std::max(max_ts, cts);
  }
  // Before the redo below: its GC floor is bounded by the clock, and a
  // replay under a stale clock could reclaim nothing.
  context_.clock().AdvanceTo(max_ts);

  // Work list: snapshot the stores (and consume the deferred catalog
  // loads) under the latch; the heavy lifting runs outside it.
  std::vector<VersionedStore*> stores;
  std::vector<bool> needs_load;
  {
    ExclusiveGuard guard(stores_latch_);
    stores.reserve(stores_.size());
    for (const auto& store : stores_) stores.push_back(store.get());
    needs_load.assign(stores.size(), false);
    for (StateId id : pending_loads_) {
      if (id < needs_load.size()) needs_load[id] = true;
    }
    pending_loads_.clear();
  }

  // Parallel recovery: loading and purging the images are per-store work
  // with no shared mutable state (the epoch manager and context reads are
  // thread-safe), so fan out across a small pool.
  std::atomic<std::size_t> next_index{0};
  std::atomic<Timestamp> recovered_max{max_ts};
  std::mutex error_mutex;
  Status first_error;
  auto worker = [&] {
    std::size_t i;
    while ((i = next_index.fetch_add(1, std::memory_order_relaxed)) <
           stores.size()) {
      VersionedStore* store = stores[i];
      if (needs_load[i]) {
        const Status status = store->LoadFromBackend();
        if (!status.ok()) {
          std::lock_guard<std::mutex> guard(error_mutex);
          if (first_error.ok()) first_error = status;
          continue;
        }
      }
      // Taken BEFORE the purge: the clock must pass even the timestamps of
      // purged versions, which stay in the backend until the next image —
      // a later commit reusing one would make it look logged.
      const Timestamp store_max = store->MaxCommittedCts();
      PurgeRecoveredImage(store, replay_info);
      Timestamp cur = recovered_max.load(std::memory_order_relaxed);
      while (store_max > cur && !recovered_max.compare_exchange_weak(
                                    cur, store_max,
                                    std::memory_order_relaxed)) {
      }
    }
  };
  const unsigned hw = options_.recovery_threads != 0
                          ? options_.recovery_threads
                          : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t worker_count =
      std::min<std::size_t>(stores.size(), static_cast<std::size_t>(hw));
  if (worker_count <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) threads.emplace_back(worker);
    for (auto& thread : threads) thread.join();
  }
  if (!first_error.ok()) return first_error;

  // Redo: the log records above each store's cut, in log order. Their
  // timestamps are all in the replayed group watermarks, so the clock
  // fast-forward below covers them.
  STREAMSI_RETURN_NOT_OK(ReplayLogData(replay_info, stores));

  context_.clock().AdvanceTo(recovered_max.load(std::memory_order_relaxed));
  {
    ExclusiveGuard guard(stores_latch_);
    recovered_ = true;
  }
  return Status::OK();
}

Timestamp Database::CoveredCts(
    StateId state,
    const std::unordered_map<GroupId, Timestamp>& cut) const {
  // Every commit on a state advances all of its groups, and every group's
  // cut is clamped below the in-flight commits, so the max is still a point
  // at or below which all of the state's commits had finished.
  Timestamp covered = kInitialTs;
  for (GroupId group : context_.GroupsOf(state)) {
    const auto it = cut.find(group);
    if (it != cut.end()) covered = std::max(covered, it->second);
  }
  return covered;
}

void Database::PurgeRecoveredImage(VersionedStore* store,
                                   const GroupCommitLog::ReplayInfo& info) {
  // A version survives iff its cts is covered by the store's checkpoint cut
  // OR appears in the replayed commit-record set. Images written at a
  // checkpoint hold only versions at or below its cut, so this purges
  // nothing from them; it exists for blobs written through at commit time
  // (directories from before commits carried their data), which can hold a
  // commit aborted at the durability point — possibly with a cts below a
  // later commit that did log, so only the exact set tells them apart.
  const std::uint64_t purged = store->PurgeUncommittedVersions(
      CoveredCts(store->id(), info.cut_watermarks),
      [&info](Timestamp cts) { return info.committed_cts.count(cts) != 0; });
  if (purged > 0) {
    STREAMSI_INFO("recovery purged " << purged << " versions of state '"
                                     << store->name()
                                     << "' beyond the commit-record set");
  }
}

Status Database::ReplayLogData(const GroupCommitLog::ReplayInfo& info,
                               const std::vector<VersionedStore*>& stores) {
  std::unordered_map<StateId, std::pair<VersionedStore*, Timestamp>> targets;
  for (VersionedStore* store : stores) {
    targets[store->id()] = {store, CoveredCts(store->id(), info.cut_watermarks)};
  }
  CommitRecord record;
  return GroupCommitLog::ReplayCommits(
      GroupLogPath(), info.first_segment,
      [&](std::string_view payload) {
        STREAMSI_RETURN_NOT_OK(DecodeCommitRecord(payload, &record));
        return ReplayCommitWriteSets(
            record,
            [&](StateId state, VersionedStore** store) {
              // At or below the store's cut, its image holds the versions.
              const auto it = targets.find(state);
              *store = it != targets.end() && record.cts > it->second.second
                           ? it->second.first
                           : nullptr;
              return Status::OK();
            },
            &context_);
      },
      env_);
}

HealthReport Database::Health() const {
  HealthReport report;
  report.state = health_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> guard(health_mutex_);
    report.first_error = first_health_error_;
  }
  report.commit_io_failures =
      commit_io_failures_.load(std::memory_order_relaxed);
  report.degraded_commit_rejections =
      degraded_commit_rejections_.load(std::memory_order_relaxed);
  // Replication stats BEFORE taking the stores latch: the applier thread
  // holds its own mutex while registering shipped states (exclusive latch),
  // so touching it while we hold the latch shared would deadlock.
  report.replication_configured =
      options_.replication.role != ReplicationRole::kNone;
  report.promoted = promoted_.load(std::memory_order_acquire);
  report.follower = follower_mode_ && !report.promoted;
  if (shipper_ != nullptr) report.replication = shipper_->Stats();
  if (applier_ != nullptr) report.replication = applier_->Stats();
  SharedGuard guard(stores_latch_);
  report.stores.reserve(stores_.size());
  for (const auto& store : stores_) {
    HealthReport::StoreHealth entry;
    entry.name = store->name();
    entry.backend_status = store->backend()->HealthStatus();
    entry.flush_retries = store->backend()->FlushRetries();
    report.stores.push_back(std::move(entry));
  }
  return report;
}

void Database::TransitionTo(DatabaseHealth target, const Status& cause) {
  DatabaseHealth current = health_.load(std::memory_order_relaxed);
  while (static_cast<int>(target) > static_cast<int>(current)) {
    if (health_.compare_exchange_weak(current, target,
                                      std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> guard(health_mutex_);
        if (first_health_error_.ok()) first_health_error_ = cause;
      }
      STREAMSI_WARN(
          "database health degraded to "
          << (target == DatabaseHealth::kFailed ? "FAILED" : "READ-ONLY")
          << ": " << cause.ToString());
      return;
    }
  }
}

void Database::NoteIoFailure(const Status& status) {
  if (status.ok()) return;
  commit_io_failures_.fetch_add(1, std::memory_order_relaxed);
  if (status.IsCorruption()) {
    TransitionTo(DatabaseHealth::kFailed, status);
    return;
  }
  if (status.IsNoSpace()) {
    TransitionTo(DatabaseHealth::kDegradedReadOnly, status);
    return;
  }
  // A one-shot IO error (e.g. an injected fault that clears) does not
  // degrade — the system is expected to recover once the cause passes. But
  // if the failure sticky-poisoned the group log's writer, every future
  // commit is doomed: degrade now so they fail fast as Unavailable instead
  // of trickling IoErrors.
  if (group_log_ != nullptr) {
    const Status writer = group_log_->WriterHealth();
    if (!writer.ok()) {
      TransitionTo(DatabaseHealth::kDegradedReadOnly, writer);
    }
  }
}

void Database::NoteBackgroundFailure(const Status& status) {
  if (status.ok()) return;
  commit_io_failures_.fetch_add(1, std::memory_order_relaxed);
  TransitionTo(status.IsCorruption() ? DatabaseHealth::kFailed
                                     : DatabaseHealth::kDegradedReadOnly,
               status);
}

Status Database::AdmitCommit() {
  if (IsUnpromotedFollower()) {
    degraded_commit_rejections_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(
        "follower is read-only; call Promote() to accept writes");
  }
  if (health_.load(std::memory_order_relaxed) == DatabaseHealth::kHealthy) {
    return Status::OK();
  }
  degraded_commit_rejections_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> guard(health_mutex_);
  return Status::Unavailable("database is read-only (degraded): " +
                             first_health_error_.ToString());
}

Status Database::Checkpoint() {
  if (IsUnpromotedFollower()) {
    // BEFORE the volatile short-circuit (a follower has no log writer): a
    // follower checkpoint would prune the shipped chain — the only place
    // its state can be rebuilt from — and must be refused loudly, not
    // silently "succeed".
    return Status::Unavailable(
        "follower is read-only; checkpoints run on the primary");
  }
  if (group_log_ == nullptr) return Status::OK();  // volatile: nothing to cut
  if (health_.load(std::memory_order_relaxed) != DatabaseHealth::kHealthy) {
    // A degraded database cannot make progress durable — and pruning
    // segments while storage is failing risks deleting the only good copy.
    return Status::Unavailable("database degraded; checkpoint refused");
  }
  const Status status = DoCheckpoint();
  if (!status.ok() && !status.IsBusy()) {
    // NoSpace/corruption during a checkpoint degrades like any other IO
    // failure; a one-shot injected error stays a counted transient (the
    // failure-injection tests pin that commits keep flowing after it).
    NoteIoFailure(status);
  }
  return status;
}

Status Database::DoCheckpoint() {
  {
    // Never checkpoint a database that has not recovered: the LastCTS cut
    // would be empty/stale, yet pruning would delete the very segments
    // recovery still needs — on a pre-catalog directory (the app declares
    // states and THEN calls Recover()) that silently purges every prior
    // life's commits. The background loop simply retries next tick.
    SharedGuard stores_guard(stores_latch_);
    if (!recovered_) {
      return Status::Busy("database not recovered yet; checkpoint skipped");
    }
  }
  // Serialize checkpoints (manual calls vs the background thread); commits
  // keep flowing throughout.
  std::lock_guard<std::mutex> guard(checkpoint_mutex_);

  // 1. Fresh segment: every commit record from here on lands after the
  //    upcoming cut. Size rolls stay off until the cut record is written;
  //    a failure before that lets them resume on the way out.
  STREAMSI_RETURN_NOT_OK(group_log_->RotateSegment());
  struct RollResume {
    GroupCommitLog* log;
    ~RollResume() { log->AbandonCheckpoint(); }
  } roll_resume{group_log_.get()};

  // 2. Drain the publication gate: a commit registers in flight BEFORE its
  //    durable record, so every commit whose record could live in the old
  //    segments has, after this, either published (its LastCTS advance is
  //    visible to the cut) or purged its versions. Deleting the old chain
  //    can therefore never lose an acked commit.
  context_.DrainInflightCommits();

  // 3. One publication-seqlock-consistent cut of every group's LastCTS,
  //    clamped below every commit that registered after the drain and is
  //    still in flight: every commit at or below it has finished.
  std::vector<std::pair<GroupId, Timestamp>> cut;
  context_.SnapshotCheckpointCut(&cut);
  const std::unordered_map<GroupId, Timestamp> cut_by_group(cut.begin(),
                                                            cut.end());

  if (options_.test_hooks.checkpoint_prune_before_cut) {
    // NEGATIVE CONTROL (tests only): prune the old chain BEFORE the cut is
    // durable. A power cut between here and the checkpoint record leaves no
    // durable trace of the pruned segments' commits — exactly the lost-ack
    // bug the ordering below prevents, and what the crash-torture harness
    // must be able to detect.
    STREAMSI_RETURN_NOT_OK(group_log_->PruneObsoleteSegments());
  }

  // 4. Images: each store writes every key modified since its last image,
  //    holding only the versions at or below the store's cut (the same
  //    CoveredCts recovery replays above). Every old-segment commit is at or
  //    below it, so the images hold everything the prune below deletes.
  // 5. Then every backend flushes: the images are durable before the cut
  //    record that relies on them.
  std::vector<VersionedStore*> stores;
  {
    SharedGuard stores_guard(stores_latch_);
    stores.reserve(stores_.size());
    for (const auto& store : stores_) stores.push_back(store.get());
  }
  for (VersionedStore* store : stores) {
    STREAMSI_RETURN_NOT_OK(
        store->WriteCheckpointImages(CoveredCts(store->id(), cut_by_group)));
  }
  for (VersionedStore* store : stores) {
    STREAMSI_RETURN_NOT_OK(store->backend()->Flush());
  }

  // 6. Durable checkpoint record. Any failure up to here (fault-injection
  //    tested) leaves the previous chain authoritative: nothing has been
  //    deleted, replay max-merges the rotated segment with the chain, and
  //    log replay skips the versions newer images already hold.
  STREAMSI_RETURN_NOT_OK(group_log_->WriteCheckpoint(cut.data(), cut.size()));

  // 7. The old chain is subsumed by the cut: truncate.
  STREAMSI_RETURN_NOT_OK(group_log_->PruneObsoleteSegments());
  checkpoints_completed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Database::Promote() {
  if (!follower_mode_) {
    return Status::InvalidArgument(
        "Promote() is only valid on a replication follower");
  }
  if (promoted_.load(std::memory_order_acquire)) return Status::OK();
  // 1. Stop continuous apply, then drain to the end of the shipped stream:
  //    an acked commit on the (dead) primary was synced before its
  //    committer returned, so its record is inside the chain's valid prefix
  //    — which the caller drains over (LogShipper::DrainFiles) before
  //    promoting. Applying it here is what makes promotion lose nothing.
  if (applier_ != nullptr) {
    applier_->Stop();
    STREAMSI_RETURN_NOT_OK(applier_->DrainFully());
  }
  if (health_.load(std::memory_order_relaxed) == DatabaseHealth::kFailed) {
    std::lock_guard<std::mutex> guard(health_mutex_);
    return Status::Unavailable("follower integrity in doubt; promotion "
                               "refused: " +
                               first_health_error_.ToString());
  }
  // 2. Promotion IS recovery: the standard parallel recovery replays the
  //    shipped chain (a no-op on top of the applied state now that the
  //    drain caught up), purges any version beyond the exact committed-
  //    record set and fast-forwards the clock — the same machinery a
  //    crashed primary restarts through, torture-tested in both roles.
  STREAMSI_RETURN_NOT_OK(RecoverInternal());
  // 3. Take over the chain as OUR durable log. Open() retires a torn
  //    newest segment in place, so new commit records never land behind
  //    garbage bytes the dead primary left mid-frame.
  auto log = std::make_unique<GroupCommitLog>(
      options_.backend_options.sync_mode,
      options_.backend_options.simulated_sync_micros, env_);
  STREAMSI_RETURN_NOT_OK(log->Open(GroupLogPath()));
  auto catalog = std::make_unique<StateCatalog>(
      options_.backend_options.sync_mode,
      options_.backend_options.simulated_sync_micros, env_);
  STREAMSI_RETURN_NOT_OK(catalog->Open(CatalogPath()));
  group_log_ = std::move(log);
  catalog_ = std::move(catalog);
  // Quiescent by construction: an unpromoted follower admits no write
  // commit, so no commit is in flight while the log is swapped in.
  txn_manager_->SetGroupLog(group_log_.get(),
                            options_.backend == BackendType::kLsm);
  // 4. A checkpoint of its own: the applier wrote nothing into the
  //    backends, so the promoted node's images are written now, under a cut
  //    of its own — a restart must not depend on the old primary's chain.
  STREAMSI_RETURN_NOT_OK(DoCheckpoint());
  promoted_.store(true, std::memory_order_release);
  if (options_.checkpoint_interval_ms > 0 && !checkpointer_.joinable()) {
    checkpointer_ = std::thread(&Database::CheckpointLoop, this);
  }
  return Status::OK();
}

Status Database::ShipNow() {
  if (shipper_ == nullptr) {
    return Status::InvalidArgument("not a replication primary");
  }
  return shipper_->ShipOnce();
}

Status Database::ApplyShippedNow() {
  if (applier_ == nullptr) {
    return Status::InvalidArgument("not a replication follower");
  }
  return applier_->ApplyOnce();
}

void Database::CheckpointLoop() {
  std::unique_lock<std::mutex> lock(checkpointer_mutex_);
  while (!stop_checkpointer_) {
    if (checkpointer_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.checkpoint_interval_ms),
            [&] { return stop_checkpointer_; })) {
      break;
    }
    lock.unlock();
    const Status status = Checkpoint();
    // Busy = recovery not run yet; Unavailable = degraded (already warned
    // once by the health transition) — neither is news worth repeating.
    if (!status.ok() && !status.IsBusy() && !status.IsUnavailable()) {
      STREAMSI_WARN("background checkpoint failed: " << status.ToString());
    }
    lock.lock();
  }
}

}  // namespace streamsi
