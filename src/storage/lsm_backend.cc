#include "storage/lsm_backend.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

#include "common/coding.h"
#include "common/logging.h"

namespace streamsi {

namespace {

// WAL payload for kPut: length-prefixed key + value. For kDelete: key only.
std::string EncodePut(std::string_view key, std::string_view value) {
  std::string payload;
  PutLengthPrefixed(&payload, key);
  PutLengthPrefixed(&payload, value);
  return payload;
}

}  // namespace

LsmBackend::LsmBackend(const BackendOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {}

LsmBackend::~LsmBackend() {
  // Stop the worker AFTER it drained the queue: sealed memtables are still
  // recoverable from their WAL segments, but flushing them keeps the next
  // open's replay short and the flush counters deterministic.
  {
    std::lock_guard<std::mutex> guard(work_mutex_);
    stop_worker_ = true;
  }
  work_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  if (wal_ != nullptr) wal_->Close();
}

Result<std::unique_ptr<LsmBackend>> LsmBackend::Open(
    const BackendOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("LsmBackend requires options.path");
  }
  auto backend = std::unique_ptr<LsmBackend>(new LsmBackend(options));
  STREAMSI_RETURN_NOT_OK(backend->env_->CreateDirIfMissing(options.path));
  STREAMSI_RETURN_NOT_OK(backend->Recover());
  backend->worker_ = std::thread(&LsmBackend::BackgroundWorker, backend.get());
  return backend;
}

std::string LsmBackend::SsTablePath(std::uint64_t number) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/sst_%08llu.sst",
                static_cast<unsigned long long>(number));
  return options_.path + buf;
}

std::string LsmBackend::WalSegmentPath(std::uint64_t number) const {
  if (number == 0) return options_.path + "/wal.log";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/wal_%06llu.log",
                static_cast<unsigned long long>(number));
  return options_.path + buf;
}

std::shared_ptr<const LsmBackend::Version> LsmBackend::CurrentVersion() const {
  std::lock_guard<SpinLock> guard(version_lock_);
  return version_;
}

void LsmBackend::InstallVersion(std::shared_ptr<const Version> v) {
  std::lock_guard<SpinLock> guard(version_lock_);
  version_ = std::move(v);
}

Status LsmBackend::Recover() {
  // 1. Manifest: whitespace-separated list of live SSTable numbers,
  //    newest first.
  live_files_.clear();
  if (env_->FileExists(ManifestPath())) {
    std::string contents;
    STREAMSI_RETURN_NOT_OK(
        env_->ReadFileToString(ManifestPath(), &contents));
    std::uint64_t number = 0;
    bool in_number = false;
    for (char c : contents) {
      if (c >= '0' && c <= '9') {
        number = number * 10 + static_cast<std::uint64_t>(c - '0');
        in_number = true;
      } else if (in_number) {
        live_files_.push_back(number);
        next_file_number_ = std::max(next_file_number_, number + 1);
        number = 0;
        in_number = false;
      }
    }
    if (in_number) {
      live_files_.push_back(number);
      next_file_number_ = std::max(next_file_number_, number + 1);
    }
  }

  auto version = std::make_shared<Version>();
  version->mem = std::make_shared<SkipList>();
  for (std::uint64_t number : live_files_) {
    auto reader = SsTableReader::Open(SsTablePath(number), env_);
    if (!reader.ok()) return reader.status();
    version->tables.push_back(std::move(reader).value());
  }

  // 2. WAL segments (records after the last flush): discover the live
  //    chain — the historical single "wal.log" is segment 0 — and replay
  //    oldest first, so newer segments' records overwrite older ones.
  // Discover the chain with the shared numbered-file helper: any digit
  // count (a fixed-width parser would silently drop segments past 6
  // digits from replay). "wal.log" is segment 0; "wal_0.log" would
  // collide with it and cannot be produced by WalSegmentPath.
  std::vector<std::uint64_t> segments;
  STREAMSI_RETURN_NOT_OK(
      env_->ListNumberedFiles(options_.path, "wal_", ".log", &segments));
  segments.erase(std::remove(segments.begin(), segments.end(), 0ull),
                 segments.end());
  if (env_->FileExists(options_.path + "/wal.log")) segments.push_back(0);
  std::sort(segments.begin(), segments.end());
  bool newest_torn = false;
  for (std::uint64_t segment : segments) {
    WalReader::ReplayStats stats;
    STREAMSI_RETURN_NOT_OK(WalReader::Replay(
        WalSegmentPath(segment),
        [&](WalRecordType type, std::string_view payload) -> Status {
          const char* p = payload.data();
          const char* limit = p + payload.size();
          std::string_view key;
          p = GetLengthPrefixed(p, limit, &key);
          if (p == nullptr) return Status::Corruption("bad WAL key");
          switch (type) {
            case WalRecordType::kPut: {
              std::string_view value;
              p = GetLengthPrefixed(p, limit, &value);
              if (p == nullptr) return Status::Corruption("bad WAL value");
              version->mem->Upsert(key, value, /*tombstone=*/false);
              break;
            }
            case WalRecordType::kDelete:
              version->mem->Upsert(key, "", /*tombstone=*/true);
              break;
            default:
              break;  // informational / foreign record kinds
          }
          return Status::OK();
        },
        &stats, env_));
    newest_torn = stats.tail_truncated;
    if (stats.tail_truncated) {
      STREAMSI_INFO("WAL tail truncated during recovery (crash tail)");
    }
  }

  InstallVersion(version);

  // Continue appending to the newest segment — unless its tail was torn:
  // records appended after torn garbage would be unreachable to replay, so
  // a torn segment is retired (deleted with the chain at the next flush)
  // and appends start a fresh one.
  active_wal_segment_ = segments.empty() ? 0 : segments.back();
  if (newest_torn) ++active_wal_segment_;
  {
    std::lock_guard<std::mutex> guard(work_mutex_);
    live_wal_segments_ = segments;
    if (segments.empty() || newest_torn) {
      live_wal_segments_.push_back(active_wal_segment_);
    }
  }

  wal_ = std::make_unique<WalWriter>(options_.sync_mode,
                                     options_.simulated_sync_micros, env_);
  return wal_->Open(WalSegmentPath(active_wal_segment_), /*truncate=*/false);
}

Status LsmBackend::Get(std::string_view key, std::string* value) const {
  auto version = CurrentVersion();
  bool tombstone = false;
  if (version->mem->Get(key, value, &tombstone)) return Status::OK();
  if (tombstone) return Status::NotFound();
  for (const auto& sealed : version->sealed) {  // newest first
    if (sealed->Get(key, value, &tombstone)) return Status::OK();
    if (tombstone) return Status::NotFound();
  }
  for (const auto& table : version->tables) {
    bool found = false;
    bool tomb = false;
    STREAMSI_RETURN_NOT_OK(table->Get(key, value, &found, &tomb));
    if (found) return tomb ? Status::NotFound() : Status::OK();
  }
  return Status::NotFound();
}

Status LsmBackend::Put(std::string_view key, std::string_view value,
                       bool sync) {
  return WriteInternal(key, value, /*tombstone=*/false, sync);
}

Status LsmBackend::Delete(std::string_view key, bool sync) {
  return WriteInternal(key, "", /*tombstone=*/true, sync);
}

Status LsmBackend::WriteInternal(std::string_view key, std::string_view value,
                                 bool tombstone, bool sync) {
  std::lock_guard<std::mutex> guard(write_mutex_);
  // A failed background flush/compaction poisons the store: accepting more
  // writes against a backend that cannot persist them would turn an IO
  // error into silent data loss. The flag keeps the per-write check
  // lock-free (the commit path's latch-minimal discipline); the mutex is
  // only taken on the already-failed path to fetch the sticky status.
  if (bg_failed_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> work_guard(work_mutex_);
    return bg_status_;
  }
  if (tombstone) {
    std::string payload;
    PutLengthPrefixed(&payload, key);
    STREAMSI_RETURN_NOT_OK(
        wal_->Append(WalRecordType::kDelete, payload, sync));
  } else {
    STREAMSI_RETURN_NOT_OK(
        wal_->Append(WalRecordType::kPut, EncodePut(key, value), sync));
  }
  auto version = CurrentVersion();
  version->mem->Upsert(key, value, tombstone);
  if (version->mem->ApproximateBytes() >= options_.memtable_bytes) {
    STREAMSI_RETURN_NOT_OK(SealMemTableLocked());
  }
  return Status::OK();
}

Status LsmBackend::SealMemTableLocked() {
  if (CurrentVersion()->mem->NodeCount() == 0) return Status::OK();

  // Bounded admission: the ONLY point a writer ever waits for the flush
  // machinery. Sealing itself is a pointer swap + WAL rotation.
  {
    std::unique_lock<std::mutex> work_lock(work_mutex_);
    if (static_cast<int>(flush_queue_.size()) >=
        std::max(1, options_.max_sealed_memtables)) {
      flush_stalls_.fetch_add(1, std::memory_order_relaxed);
      done_cv_.wait(work_lock, [&] {
        return static_cast<int>(flush_queue_.size()) <
                   std::max(1, options_.max_sealed_memtables) ||
               !bg_status_.ok();
      });
    }
    if (!bg_status_.ok()) return bg_status_;
  }

  // Rotate the WAL first: the sealed memtable's records all live in
  // segments <= sealed_through, so the flush worker can retire exactly
  // those once the SSTable is durable.
  const std::uint64_t sealed_through = active_wal_segment_;
  STREAMSI_RETURN_NOT_OK(wal_->RotateTo(WalSegmentPath(++active_wal_segment_)));
  {
    std::lock_guard<std::mutex> work_guard(work_mutex_);
    live_wal_segments_.push_back(active_wal_segment_);
  }

  std::shared_ptr<SkipList> sealed_mem;
  {
    std::lock_guard<std::mutex> version_guard(version_update_mutex_);
    auto cur = CurrentVersion();
    sealed_mem = cur->mem;
    auto next = std::make_shared<Version>();
    next->mem = std::make_shared<SkipList>();
    next->sealed.reserve(cur->sealed.size() + 1);
    next->sealed.push_back(cur->mem);
    next->sealed.insert(next->sealed.end(), cur->sealed.begin(),
                        cur->sealed.end());
    next->tables = cur->tables;
    InstallVersion(std::move(next));
  }

  {
    std::lock_guard<std::mutex> work_guard(work_mutex_);
    flush_queue_.push_back(FlushJob{std::move(sealed_mem), sealed_through});
    ++jobs_submitted_;
  }
  work_cv_.notify_one();
  return Status::OK();
}

void LsmBackend::BackgroundWorker() {
  for (;;) {
    FlushJob job;
    {
      std::unique_lock<std::mutex> work_lock(work_mutex_);
      work_cv_.wait(work_lock,
                    [&] { return stop_worker_ || !flush_queue_.empty(); });
      if (flush_queue_.empty()) return;  // stop requested, queue drained
      job = std::move(flush_queue_.front());
      flush_queue_.pop_front();
    }
    // Transient IO hiccups must not poison the store on first contact:
    // both steps are idempotent (fresh file number per attempt, atomic
    // manifest publication, orphan SSTables invisible to recovery), so
    // retrying with backoff is safe.
    Status status =
        RunWithRetries("flush", [&] { return FlushJobToSsTable(job); });
    if (status.ok()) {
      status = RunWithRetries("compaction", [&] { return MaybeCompact(); });
    }
    bool newly_poisoned = false;
    {
      std::lock_guard<std::mutex> work_guard(work_mutex_);
      if (!status.ok() && bg_status_.ok()) {
        bg_status_ = status;
        bg_failed_.store(true, std::memory_order_release);
        newly_poisoned = true;
      }
      ++jobs_done_;
    }
    done_cv_.notify_all();
    if (newly_poisoned && options_.on_background_failure) {
      // Outside every lock: the database's hook takes its own health mutex.
      options_.on_background_failure(status);
    }
  }
}

Status LsmBackend::RunWithRetries(const char* what,
                                  const std::function<Status()>& op) {
  Status status = op();
  std::uint64_t backoff_ms = std::max<std::uint64_t>(
      1, options_.flush_retry_backoff_ms);
  for (int attempt = 0;
       !status.ok() && attempt < options_.flush_retry_attempts; ++attempt) {
    // A full disk or a checksum mismatch does not heal on retry.
    if (status.IsNoSpace() || status.IsCorruption()) break;
    {
      // Interruptible backoff: a stop request (or prior poisoning) ends the
      // retry loop instead of holding shutdown hostage for the backoff sum.
      std::unique_lock<std::mutex> work_lock(work_mutex_);
      if (!bg_status_.ok()) break;
      work_cv_.wait_for(work_lock, std::chrono::milliseconds(backoff_ms),
                        [&] { return stop_worker_; });
      if (stop_worker_) break;
    }
    flush_retries_.fetch_add(1, std::memory_order_relaxed);
    STREAMSI_INFO("background " << what << " failed (" << status.ToString()
                                << "), retry " << (attempt + 1) << "/"
                                << options_.flush_retry_attempts);
    status = op();
    backoff_ms *= 2;
  }
  return status;
}

Status LsmBackend::HealthStatus() const {
  std::lock_guard<std::mutex> guard(work_mutex_);
  return bg_status_;
}

Status LsmBackend::FlushJobToSsTable(const FlushJob& job) {
  const std::uint64_t number = next_file_number_++;
  const std::string path = SsTablePath(number);
  SsTableWriter writer(options_.block_bytes, options_.bloom_bits_per_key,
                       env_);
  STREAMSI_RETURN_NOT_OK(writer.Open(path));
  Status add_status = Status::OK();
  job.mem->Iterate(
      [&](std::string_view key, std::string_view value, bool tombstone) {
        add_status = writer.Add(key, value, tombstone);
        return add_status.ok();
      });
  STREAMSI_RETURN_NOT_OK(add_status);
  STREAMSI_RETURN_NOT_OK(writer.Finish());

  auto reader = SsTableReader::Open(path, env_);
  if (!reader.ok()) return reader.status();

  std::vector<std::uint64_t> files;
  files.push_back(number);
  files.insert(files.end(), live_files_.begin(), live_files_.end());
  STREAMSI_RETURN_NOT_OK(WriteManifest(files));
  live_files_ = std::move(files);

  {
    std::lock_guard<std::mutex> version_guard(version_update_mutex_);
    auto cur = CurrentVersion();
    auto next = std::make_shared<Version>();
    next->mem = cur->mem;
    next->sealed = cur->sealed;
    // FIFO: the flushed memtable is the oldest sealed one.
    auto it = std::find(next->sealed.begin(), next->sealed.end(), job.mem);
    if (it != next->sealed.end()) next->sealed.erase(it);
    // Newer than every existing SSTable (older sealed memtables flushed
    // before it), older than the remaining sealed ones and the memtable.
    next->tables.reserve(cur->tables.size() + 1);
    next->tables.push_back(std::move(reader).value());
    next->tables.insert(next->tables.end(), cur->tables.begin(),
                        cur->tables.end());
    InstallVersion(std::move(next));
  }

  // The flushed data is durable in the SSTable: its WAL segments are
  // obsolete. FIFO flushing means an older segment never outlives a newer
  // one, which keeps stale-WAL shadowing impossible on recovery.
  {
    std::lock_guard<std::mutex> work_guard(work_mutex_);
    auto it = live_wal_segments_.begin();
    while (it != live_wal_segments_.end() && *it <= job.sealed_through) {
      // A failed unlink stays in the list AND stops the pass (retried by
      // the next flush): deleting a newer segment while an older one
      // survives on disk would let a later recovery replay the stale old
      // records OVER newer SSTable data — the older-never-outlives-newer
      // invariant the whole segment scheme rests on.
      if (!env_->RemoveFile(WalSegmentPath(*it)).ok()) break;
      it = live_wal_segments_.erase(it);
    }
  }

  flushes_.fetch_add(1, std::memory_order_relaxed);
  if (std::this_thread::get_id() == worker_.get_id()) {
    background_flushes_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status LsmBackend::MaybeCompact() {
  if (static_cast<int>(live_files_.size()) <= options_.l0_compaction_trigger) {
    return Status::OK();
  }
  // Full merge: newest-wins per key; drop tombstones (no older level exists
  // after a full merge).
  auto version = CurrentVersion();
  std::map<std::string, std::pair<std::string, bool>> merged;
  for (auto it = version->tables.rbegin(); it != version->tables.rend();
       ++it) {  // oldest -> newest so newer overwrites
    STREAMSI_RETURN_NOT_OK((*it)->Iterate(
        [&](std::string_view key, std::string_view value, bool tombstone) {
          merged[std::string(key)] = {std::string(value), tombstone};
          return true;
        }));
  }

  const std::uint64_t number = next_file_number_++;
  const std::string path = SsTablePath(number);
  SsTableWriter writer(options_.block_bytes, options_.bloom_bits_per_key,
                       env_);
  STREAMSI_RETURN_NOT_OK(writer.Open(path));
  for (const auto& [key, entry] : merged) {
    if (entry.second) continue;  // tombstone: gone for good
    STREAMSI_RETURN_NOT_OK(writer.Add(key, entry.first, false));
  }
  STREAMSI_RETURN_NOT_OK(writer.Finish());

  auto reader = SsTableReader::Open(path, env_);
  if (!reader.ok()) return reader.status();

  const std::vector<std::uint64_t> old_files = live_files_;
  std::vector<std::uint64_t> files{number};
  STREAMSI_RETURN_NOT_OK(WriteManifest(files));
  live_files_ = std::move(files);

  {
    std::lock_guard<std::mutex> version_guard(version_update_mutex_);
    auto cur = CurrentVersion();
    auto next = std::make_shared<Version>();
    next->mem = cur->mem;        // memtable unaffected
    next->sealed = cur->sealed;  // sealed memtables unaffected
    next->tables.push_back(std::move(reader).value());
    InstallVersion(std::move(next));
  }

  for (std::uint64_t old : old_files) {
    (void)env_->RemoveFile(SsTablePath(old));
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  if (std::this_thread::get_id() == worker_.get_id()) {
    background_compactions_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status LsmBackend::WriteManifest(const std::vector<std::uint64_t>& files) {
  std::string contents;
  for (std::uint64_t number : files) {
    contents += std::to_string(number);
    contents += '\n';
  }
  return env_->WriteStringToFileAtomic(ManifestPath(), contents);
}

Status LsmBackend::Scan(const ScanCallback& callback) const {
  auto version = CurrentVersion();
  // Newest-wins merge across memtable + sealed memtables + tables.
  std::map<std::string, std::optional<std::string>> merged;
  for (auto it = version->tables.rbegin(); it != version->tables.rend();
       ++it) {
    STREAMSI_RETURN_NOT_OK((*it)->Iterate(
        [&](std::string_view key, std::string_view value, bool tombstone) {
          if (tombstone) {
            merged[std::string(key)] = std::nullopt;
          } else {
            merged[std::string(key)] = std::string(value);
          }
          return true;
        }));
  }
  const auto upsert = [&](std::string_view key, std::string_view value,
                          bool tombstone) {
    if (tombstone) {
      merged[std::string(key)] = std::nullopt;
    } else {
      merged[std::string(key)] = std::string(value);
    }
    return true;
  };
  for (auto it = version->sealed.rbegin(); it != version->sealed.rend();
       ++it) {  // oldest -> newest
    (*it)->Iterate(upsert);
  }
  version->mem->Iterate(upsert);
  for (const auto& [key, value] : merged) {
    if (!value.has_value()) continue;
    if (!callback(key, *value)) return Status::OK();
  }
  return Status::OK();
}

std::uint64_t LsmBackend::ApproximateCount() const {
  auto version = CurrentVersion();
  std::uint64_t count = version->mem->NodeCount();
  for (const auto& sealed : version->sealed) count += sealed->NodeCount();
  for (const auto& table : version->tables) count += table->entry_count();
  return count;
}

Status LsmBackend::Flush() {
  {
    std::lock_guard<std::mutex> guard(write_mutex_);
    if (CurrentVersion()->mem->NodeCount() > 0) {
      STREAMSI_RETURN_NOT_OK(SealMemTableLocked());
    }
  }
  // Barrier: every job sealed so far (ours included) flushed + compacted.
  std::unique_lock<std::mutex> work_lock(work_mutex_);
  const std::uint64_t target = jobs_submitted_;
  done_cv_.wait(work_lock, [&] { return jobs_done_ >= target; });
  return bg_status_;
}

int LsmBackend::SsTableCount() const {
  return static_cast<int>(CurrentVersion()->tables.size());
}

int LsmBackend::SealedMemtableCount() const {
  return static_cast<int>(CurrentVersion()->sealed.size());
}

}  // namespace streamsi
