#include "storage/wal.h"

#include <chrono>
#include <thread>

#include "common/coding.h"
#include "common/crc32.h"

namespace streamsi {

Status WalWriter::Open(const std::string& path, bool truncate) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto file = env_->NewWritableFile(path, truncate);
  if (!file.ok()) return file.status();
  file_ = std::move(*file);
  appended_bytes_.store(file_->size(), std::memory_order_release);
  sticky_status_ = Status::OK();
  return Status::OK();
}

void WalWriter::EncodeRecordTo(std::string* out, WalRecordType type,
                               std::string_view payload) {
  // Frame layout: [crc(4)] [len(4)] [type(1)] [payload]. The CRC is patched
  // in after the body lands in the (reused) batch buffer, so a record is
  // encoded with zero temporary strings.
  const std::size_t frame_start = out->size();
  out->append(8, '\0');  // crc + len placeholders
  out->push_back(static_cast<char>(type));
  out->append(payload.data(), payload.size());
  const std::uint32_t crc =
      Crc32c(out->data() + frame_start + 8, 1 + payload.size());
  const std::uint32_t masked = MaskCrc(crc);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(out->data() + frame_start, &masked, 4);
  std::memcpy(out->data() + frame_start + 4, &len, 4);
}

Status WalWriter::FlushPendingLocked() {
  if (pending_.empty()) return sticky_status_;
  Status status = sticky_status_;
  if (status.ok()) {
    status = file_ != nullptr ? file_->Append(pending_)
                              : Status::IoError("append to closed file");
  }
  if (!status.ok() && sticky_status_.ok()) sticky_status_ = status;
  pending_.clear();
  return sticky_status_;
}

Status WalWriter::AwaitDurableLocked(std::unique_lock<std::mutex>& lk,
                                     std::uint64_t my_batch) {
  while (durable_batch_ < my_batch) {
    if (leader_active_) {
      // A leader's write+sync is in flight; our records accumulate into the
      // next batch. Sleep until it finishes (it may have covered us).
      cv_.wait(lk, [&] {
        return !leader_active_ || durable_batch_ >= my_batch;
      });
      continue;
    }
    // Become the leader for everything accumulated so far.
    leader_active_ = true;
    std::swap(writing_, pending_);
    const std::uint64_t batch = accumulating_batch_++;
    const bool want_sync = sync_requested_;
    sync_requested_ = false;
    Status status = sticky_status_;
    lk.unlock();
    if (status.ok() && file_ == nullptr) {
      status = Status::IoError("append to closed file");
    }
    if (status.ok() && !writing_.empty()) status = file_->Append(writing_);
    if (status.ok() && want_sync) status = ApplySync();
    writing_.clear();
    lk.lock();
    batches_written_.fetch_add(1, std::memory_order_relaxed);
    if (!status.ok() && sticky_status_.ok()) sticky_status_ = status;
    durable_batch_ = batch;
    leader_active_ = false;
    if (!pending_.empty() && !sync_requested_) {
      // Unsynced riders that arrived during our IO: write them through now
      // so buffered bytes never outlive the batch that delayed them. (A
      // pending batch with a sync request has a waiter that will lead it.)
      (void)FlushPendingLocked();
    }
    cv_.notify_all();
  }
  return sticky_status_;
}

Status WalWriter::Append(WalRecordType type, std::string_view payload,
                         bool sync) {
  std::unique_lock<std::mutex> lk(mutex_);
  cv_.wait(lk, [&] { return !rotating_; });
  if (!sticky_status_.ok()) return sticky_status_;
  EncodeRecordTo(&pending_, type, payload);
  appended_bytes_.fetch_add(9 + payload.size(), std::memory_order_acq_rel);
  if (!sync) {
    // Keep write-through semantics for unsynced appends unless a leader is
    // mid-sync (then the bytes ride with the next batch write).
    if (!leader_active_) return FlushPendingLocked();
    return Status::OK();
  }
  sync_requested_ = true;
  return AwaitDurableLocked(lk, accumulating_batch_);
}

Status WalWriter::ApplySync() {
  switch (sync_mode_) {
    case SyncMode::kNone:
      return file_->Flush();
    case SyncMode::kFsync:
      return file_->Sync();
    case SyncMode::kSimulated: {
      STREAMSI_RETURN_NOT_OK(file_->Flush());
      // Deterministic stand-in for the fsync cost: the paper's evaluation
      // depends on synchronous writes being orders of magnitude slower than
      // in-memory reads. A real sleep (like a real fsync) blocks the
      // calling thread and releases the CPU, so the writer is not starved
      // when threads outnumber cores — and, like a real fsync, the whole
      // group-commit batch pays it once.
      std::this_thread::sleep_for(
          std::chrono::microseconds(simulated_sync_micros_));
      return Status::OK();
    }
  }
  return Status::OK();
}

Status WalWriter::SyncNow() {
  std::unique_lock<std::mutex> lk(mutex_);
  if (!sticky_status_.ok()) return sticky_status_;
  sync_requested_ = true;
  return AwaitDurableLocked(lk, accumulating_batch_);
}

Status WalWriter::RotateTo(const std::string& path) {
  std::unique_lock<std::mutex> lk(mutex_);
  // Drain the queue completely (same protocol as Close): leaders in flight,
  // parked sync followers AND buffered unsynced riders all reach the current
  // file before the switch — a sync follower whose batch we silently moved
  // to the new file would otherwise have its durability satisfied by a sync
  // of the wrong fd. New appends wait for the switch: leading a batch
  // releases the mutex, and appends accumulating behind every batch would
  // starve the drain under steady commit traffic.
  rotating_ = true;
  Status status;
  while (status.ok() &&
         (leader_active_ || !pending_.empty() || sync_requested_)) {
    status = AwaitDurableLocked(lk, accumulating_batch_);
  }
  rotating_ = false;
  cv_.notify_all();
  STREAMSI_RETURN_NOT_OK(status);
  if (!sticky_status_.ok()) return sticky_status_;
  if (file_ != nullptr) STREAMSI_RETURN_NOT_OK(file_->Close());
  auto file = env_->NewWritableFile(path, /*truncate=*/true);
  if (!file.ok()) {
    file_.reset();
    sticky_status_ = file.status();  // no open file: poison later appends
    return file.status();
  }
  file_ = std::move(*file);
  appended_bytes_.store(file_->size(), std::memory_order_release);
  return Status::OK();
}

Status WalWriter::Close() {
  std::unique_lock<std::mutex> lk(mutex_);
  // Drain the whole queue — in-flight leader AND parked sync followers —
  // by leading the remaining batches ourselves: waiting only for the
  // current leader would let a queued follower wake after the close and
  // lead against a closed file. Afterwards every waiter's batch is durable
  // (they return without touching the file) and pending bytes are written,
  // so a cleanly closed log replays every appended record.
  // sync_requested_ covers the corner where a parked follower's bytes were
  // already flushed by a rider (pending empty) but its batch is not yet
  // durable — the flag is only cleared by the leader that owns the batch.
  if (leader_active_ || !pending_.empty() || sync_requested_) {
    (void)AwaitDurableLocked(lk, accumulating_batch_);
  }
  if (file_ == nullptr) return Status::OK();
  return file_->Close();
}

std::uint64_t WalReader::ValidFramePrefix(std::string_view contents) {
  const char* p = contents.data();
  const char* limit = p + contents.size();
  while (p + 9 <= limit) {
    const std::uint32_t stored_crc = UnmaskCrc(DecodeFixed32(p));
    const std::uint32_t len = DecodeFixed32(p + 4);
    if (len > static_cast<std::uint64_t>(limit - p) - 9) break;
    if (Crc32c(std::string_view(p + 8, 1 + len)) != stored_crc) break;
    p += 9 + len;
  }
  return static_cast<std::uint64_t>(p - contents.data());
}

Status WalReader::Replay(const std::string& path, const Visitor& visitor,
                         ReplayStats* stats, Env* env) {
  if (env == nullptr) env = Env::Default();
  ReplayStats local;
  std::string contents;
  STREAMSI_RETURN_NOT_OK(env->ReadFileToString(path, &contents));
  const char* p = contents.data();
  const char* limit = p + contents.size();
  while (p + 9 <= limit) {
    const std::uint32_t stored_crc = UnmaskCrc(DecodeFixed32(p));
    const std::uint32_t len = DecodeFixed32(p + 4);
    if (p + 9 + len > limit) {
      local.tail_truncated = true;  // torn final record
      break;
    }
    const char* body = p + 8;
    if (Crc32c(std::string_view(body, 1 + len)) != stored_crc) {
      local.tail_truncated = true;
      break;
    }
    const auto type = static_cast<WalRecordType>(*body);
    STREAMSI_RETURN_NOT_OK(visitor(type, std::string_view(body + 1, len)));
    ++local.records;
    p += 9 + len;
  }
  local.valid_bytes = static_cast<std::uint64_t>(p - contents.data());
  if (p != limit && !local.tail_truncated) local.tail_truncated = true;
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace streamsi
