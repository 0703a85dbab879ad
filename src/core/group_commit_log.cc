#include "core/group_commit_log.h"

#include <algorithm>
#include <cstdio>

#include "common/coding.h"
#include "common/logging.h"
#include "core/commit_record.h"

namespace streamsi {

namespace {

/// Decodes one segment into `result` (max-merge) and `info` (exact
/// committed-cts set + cut-only watermarks). `has_checkpoint` reports
/// whether a complete kCheckpointCut record was seen.
Status ReplaySegment(Env* env, const std::string& path,
                     std::unordered_map<GroupId, Timestamp>* result,
                     GroupCommitLog::ReplayInfo* info,
                     bool* has_checkpoint, std::uint64_t* records) {
  return WalReader::Replay(
      path,
      [&](WalRecordType type, std::string_view payload) -> Status {
        ++*records;
        const char* p = payload.data();
        const char* limit = p + payload.size();
        switch (type) {
          // kReplicatedCommit = the kGroupCommit prefix + the commit's
          // write sets; only the prefix matters here.
          case WalRecordType::kReplicatedCommit:
          case WalRecordType::kGroupCommit: {
            CommitRecord record;
            STREAMSI_RETURN_NOT_OK(DecodeCommitRecord(payload, &record));
            for (GroupId id : record.groups) {
              Timestamp& entry = (*result)[id];
              entry = std::max(entry, record.cts);
            }
            info->committed_cts.insert(record.cts);
            return Status::OK();
          }
          case WalRecordType::kCheckpointCut: {
            std::uint32_t count = 0;
            p = GetVarint32(p, limit, &count);
            if (p == nullptr || count > payload.size()) {
              return Status::Corruption("bad checkpoint cut count");
            }
            for (std::uint32_t i = 0; i < count; ++i) {
              GroupId id = kInvalidGroupId;
              std::uint64_t cts = 0;
              p = GetVarint32(p, limit, &id);
              if (p != nullptr) p = GetVarint64(p, limit, &cts);
              if (p == nullptr) {
                return Status::Corruption("bad checkpoint cut entry");
              }
              Timestamp& entry = (*result)[id];
              entry = std::max(entry, cts);
              Timestamp& cut_entry = info->cut_watermarks[id];
              cut_entry = std::max(cut_entry, cts);
            }
            *has_checkpoint = true;
            return Status::OK();
          }
          case WalRecordType::kCheckpoint: {
            // Legacy single-group record (pre-checkpoint era; no writer
            // remains, decode kept for on-disk compatibility).
            std::uint32_t group = 0;
            std::uint64_t cts = 0;
            p = GetVarint32(p, limit, &group);
            if (p == nullptr) return Status::Corruption("bad group id");
            p = GetVarint64(p, limit, &cts);
            if (p == nullptr) return Status::Corruption("bad group cts");
            Timestamp& entry = (*result)[group];
            entry = std::max(entry, cts);
            info->committed_cts.insert(cts);  // one record per commit
            return Status::OK();
          }
          default:
            // Foreign record kinds (future eras) are skipped, not fatal.
            return Status::OK();
        }
      },
      nullptr, env);
}

}  // namespace

std::string GroupCommitLog::SegmentPath(const std::string& root,
                                        std::uint64_t n) {
  if (n == 0) return root;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%06llu",
                static_cast<unsigned long long>(n));
  return root + suffix;
}

Status GroupCommitLog::ListSegments(Env* env, const std::string& root,
                                    std::vector<std::uint64_t>* numbers) {
  numbers->clear();
  const std::size_t slash = root.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : root.substr(0, slash);
  const std::string base =
      slash == std::string::npos ? root : root.substr(slash + 1);
  STREAMSI_RETURN_NOT_OK(
      env->ListNumberedFiles(dir, base + ".", "", numbers));
  // Segment numbers start at 1 — the bare root name IS segment 0, so a
  // stray "<root>.0" would collide with it.
  numbers->erase(std::remove(numbers->begin(), numbers->end(), 0ull),
                 numbers->end());
  if (env->FileExists(root)) numbers->push_back(0);
  std::sort(numbers->begin(), numbers->end());
  return Status::OK();
}

Status GroupCommitLog::Open(const std::string& path) {
  root_path_ = path;
  std::vector<std::uint64_t> numbers;
  STREAMSI_RETURN_NOT_OK(ListSegments(env_, path, &numbers));
  std::lock_guard<std::mutex> guard(segments_mutex_);
  if (numbers.empty()) numbers.push_back(0);
  segments_ = std::move(numbers);
  current_segment_ = segments_.back();
  // Never append after a torn tail: replay stops at the first bad frame,
  // so records appended behind one would be unreachable forever — acked
  // commits silently lost at the next recovery. A torn newest segment is
  // retired in place (it replays to its valid prefix; pruned by the next
  // checkpoint) and appends start a fresh segment.
  if (env_->FileExists(SegmentPath(root_path_, current_segment_))) {
    WalReader::ReplayStats stats;
    STREAMSI_RETURN_NOT_OK(WalReader::Replay(
        SegmentPath(root_path_, current_segment_),
        [](WalRecordType, std::string_view) { return Status::OK(); },
        &stats, env_));
    if (stats.tail_truncated) {
      ++current_segment_;
      segments_.push_back(current_segment_);
    }
  }
  checkpoint_segment_ = current_segment_;
  return writer_.Open(SegmentPath(root_path_, current_segment_),
                      /*truncate=*/false);
}

Status GroupCommitLog::RecordCommit(const GroupId* groups, std::size_t count,
                                    Timestamp cts, bool sync,
                                    std::string_view write_sets) {
  if (failures_to_inject_.load(std::memory_order_relaxed) > 0 &&
      failures_to_inject_.fetch_sub(1, std::memory_order_relaxed) > 0) {
    return Status::IoError("injected group-commit log failure");
  }
  thread_local std::string payload;
  payload.clear();
  PutVarint32(&payload, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) PutVarint32(&payload, groups[i]);
  PutVarint64(&payload, cts);
  WalRecordType type = WalRecordType::kGroupCommit;
  if (!write_sets.empty()) {
    payload.append(write_sets.data(), write_sets.size());
    type = WalRecordType::kReplicatedCommit;
  }
  STREAMSI_RETURN_NOT_OK(writer_.Append(type, payload, sync));
  if (writer_.size() >= kSegmentRollBytes) MaybeRoll();
  return Status::OK();
}

void GroupCommitLog::MaybeRoll() {
  std::lock_guard<std::mutex> guard(segments_mutex_);
  // Re-checked under the lock: committers that crossed the limit together
  // queue here, and only the first one rolls.
  if (checkpoint_window_ || writer_.size() < kSegmentRollBytes) return;
  const std::uint64_t next = current_segment_ + 1;
  // The triggering commit's record is already durable in the old segment,
  // so a failed roll does not fail it; a failed file creation poisons the
  // writer and the next commit reports it.
  const Status status = writer_.RotateTo(SegmentPath(root_path_, next));
  if (!status.ok()) {
    STREAMSI_WARN("group commit log roll failed: " << status.ToString());
    return;
  }
  current_segment_ = next;
  segments_.push_back(next);
}

Status GroupCommitLog::ConsumeFault(CheckpointFault point) {
  CheckpointFault expected = point;
  if (checkpoint_fault_.compare_exchange_strong(expected,
                                                CheckpointFault::kNone,
                                                std::memory_order_relaxed)) {
    return Status::IoError("injected checkpoint fault");
  }
  return Status::OK();
}

Status GroupCommitLog::RotateSegment() {
  STREAMSI_RETURN_NOT_OK(ConsumeFault(CheckpointFault::kBeforeRotate));
  std::lock_guard<std::mutex> guard(segments_mutex_);
  const std::uint64_t next = current_segment_ + 1;
  STREAMSI_RETURN_NOT_OK(writer_.RotateTo(SegmentPath(root_path_, next)));
  current_segment_ = next;
  checkpoint_segment_ = next;
  checkpoint_window_ = true;
  segments_.push_back(next);
  return Status::OK();
}

Status GroupCommitLog::WriteCheckpoint(
    const std::pair<GroupId, Timestamp>* cut, std::size_t count) {
  Status status = ConsumeFault(CheckpointFault::kBeforeCheckpointRecord);
  if (status.ok()) {
    std::string payload;
    PutVarint32(&payload, static_cast<std::uint32_t>(count));
    for (std::size_t i = 0; i < count; ++i) {
      PutVarint32(&payload, cut[i].first);
      PutVarint64(&payload, cut[i].second);
    }
    status = writer_.Append(WalRecordType::kCheckpointCut, payload,
                            /*sync=*/true);
  }
  AbandonCheckpoint();
  return status;
}

void GroupCommitLog::AbandonCheckpoint() {
  std::lock_guard<std::mutex> guard(segments_mutex_);
  checkpoint_window_ = false;
}

Status GroupCommitLog::PruneObsoleteSegments() {
  STREAMSI_RETURN_NOT_OK(ConsumeFault(CheckpointFault::kBeforePrune));
  std::lock_guard<std::mutex> guard(segments_mutex_);
  const std::uint64_t floor = retain_floor_.load(std::memory_order_relaxed);
  Status first_error;
  std::vector<std::uint64_t> kept;
  for (std::uint64_t n : segments_) {
    if (n >= checkpoint_segment_ || n >= floor) {
      kept.push_back(n);
      continue;
    }
    const Status status = env_->RemoveFile(SegmentPath(root_path_, n));
    if (!status.ok()) {
      kept.push_back(n);
      if (first_error.ok()) first_error = status;
    }
  }
  segments_ = std::move(kept);
  return first_error;
}

void GroupCommitLog::ListLiveSegments(
    std::vector<std::uint64_t>* numbers) const {
  std::lock_guard<std::mutex> guard(segments_mutex_);
  *numbers = segments_;
}

Status GroupCommitLog::TailFrom(Env* env, const std::string& path,
                                std::uint64_t offset, std::string* out) {
  out->clear();
  if (env == nullptr) env = Env::Default();
  std::string contents;
  STREAMSI_RETURN_NOT_OK(env->ReadFileToString(path, &contents));
  const std::uint64_t valid = WalReader::ValidFramePrefix(contents);
  if (offset >= valid) return Status::OK();
  out->assign(contents, offset, valid - offset);
  return Status::OK();
}

std::uint64_t GroupCommitLog::current_segment() const {
  std::lock_guard<std::mutex> guard(segments_mutex_);
  return current_segment_;
}

std::size_t GroupCommitLog::SegmentCount() const {
  std::lock_guard<std::mutex> guard(segments_mutex_);
  return segments_.size();
}

std::uint64_t GroupCommitLog::TotalSizeBytes() const {
  std::lock_guard<std::mutex> guard(segments_mutex_);
  std::uint64_t total = 0;
  for (std::uint64_t n : segments_) {
    std::uint64_t size = 0;
    if (env_->FileSize(SegmentPath(root_path_, n), &size).ok()) {
      total += size;
    }
  }
  return total;
}

Result<std::unordered_map<GroupId, Timestamp>> GroupCommitLog::Replay(
    const std::string& path, ReplayInfo* info, Env* env) {
  if (env == nullptr) env = Env::Default();
  ReplayInfo local;
  std::unordered_map<GroupId, Timestamp> result;
  std::vector<std::uint64_t> numbers;
  STREAMSI_RETURN_NOT_OK(ListSegments(env, path, &numbers));
  local.segments_present = numbers.size();
  // Newest -> oldest until a segment containing a complete checkpoint cut:
  // every record in older segments is subsumed by the cut (their commits
  // published before it was taken — Database::Checkpoint drains in-flight
  // commits between rotating and cutting). Max-merge makes the combination
  // order-insensitive, so the newer segments' records apply cleanly on top.
  for (std::size_t i = numbers.size(); i-- > 0;) {
    bool has_checkpoint = false;
    STREAMSI_RETURN_NOT_OK(ReplaySegment(env, SegmentPath(path, numbers[i]),
                                         &result, &local, &has_checkpoint,
                                         &local.records));
    ++local.segments_replayed;
    local.first_segment = numbers[i];
    if (has_checkpoint) {
      local.from_checkpoint = true;
      break;
    }
  }
  if (info != nullptr) *info = local;
  return result;
}

Status GroupCommitLog::ReplayCommits(
    const std::string& path, std::uint64_t first_segment,
    const std::function<Status(std::string_view payload)>& fn, Env* env) {
  if (env == nullptr) env = Env::Default();
  std::vector<std::uint64_t> numbers;
  STREAMSI_RETURN_NOT_OK(ListSegments(env, path, &numbers));
  for (std::uint64_t n : numbers) {
    if (n < first_segment) continue;
    STREAMSI_RETURN_NOT_OK(WalReader::Replay(
        SegmentPath(path, n),
        [&](WalRecordType type, std::string_view payload) {
          return type == WalRecordType::kReplicatedCommit ? fn(payload)
                                                          : Status::OK();
        },
        nullptr, env));
  }
  return Status::OK();
}

}  // namespace streamsi
