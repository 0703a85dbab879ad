#include "replication/follower_applier.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/coding.h"
#include "common/crc32.h"
#include "core/commit_record.h"
#include "core/group_commit_log.h"

namespace streamsi {

FollowerApplier::FollowerApplier(Env* env, std::string log_root,
                                 std::string watermark_path,
                                 StateContext* context, Hooks hooks,
                                 Options options)
    : env_(env != nullptr ? env : Env::Default()),
      log_root_(std::move(log_root)),
      watermark_path_(std::move(watermark_path)),
      context_(context),
      hooks_(std::move(hooks)),
      options_(options) {}

FollowerApplier::~FollowerApplier() { Stop(); }

void FollowerApplier::Start() {
  {
    std::lock_guard<std::mutex> guard(loop_mutex_);
    if (thread_.joinable()) return;
    stop_ = false;
  }
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stats_.active = true;
  }
  thread_ = std::thread(&FollowerApplier::Loop, this);
}

void FollowerApplier::Stop() {
  {
    std::lock_guard<std::mutex> guard(loop_mutex_);
    stop_ = true;
  }
  loop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> guard(mutex_);
  stats_.active = false;
}

void FollowerApplier::Loop() {
  std::unique_lock<std::mutex> lk(loop_mutex_);
  while (!stop_) {
    lk.unlock();
    const Status status = ApplyOnce();
    lk.lock();
    if (status.IsCorruption()) break;  // sticky; nothing left to do
    loop_cv_.wait_for(lk, std::chrono::milliseconds(options_.interval_ms),
                      [&] { return stop_; });
  }
}

Status FollowerApplier::ApplyOnce() {
  std::lock_guard<std::mutex> guard(mutex_);
  const Status status = ApplyOnceLocked();
  if (!status.ok() && !status.IsCorruption()) {
    stats_.transient_failures += 1;
    stats_.last_error = status;
  } else if (status.ok() && sticky_.ok()) {
    stats_.last_error = Status::OK();
  }
  RefreshWatermarksLocked();
  return status;
}

Status FollowerApplier::MarkCorruptLocked(Status status) {
  sticky_ = status;
  stats_.link_healthy = false;
  stats_.last_error = status;
  if (hooks_.on_corruption) hooks_.on_corruption(status);
  return status;
}

Status FollowerApplier::ApplyOnceLocked() {
  if (!sticky_.ok()) return sticky_;
  caught_up_ = false;
  if (hooks_.refresh_catalog) {
    const Status status = hooks_.refresh_catalog();
    if (!status.ok()) {
      if (status.IsCorruption()) return MarkCorruptLocked(status);
      return status;  // transient (e.g. catalog chunk mid-flight)
    }
  }
  std::vector<std::uint64_t> numbers;
  STREAMSI_RETURN_NOT_OK(
      GroupCommitLog::ListSegmentsOnDisk(env_, log_root_, &numbers));
  if (numbers.empty()) {
    caught_up_ = true;  // nothing shipped yet
    return Status::OK();
  }
  if (!cursor_started_) {
    // Segments ship strictly ascending, so the first nonempty listing's
    // front is the true start of the shipped chain.
    cursor_segment_ = numbers.front();
    cursor_offset_ = 0;
    cursor_started_ = true;
  }
  for (;;) {
    const bool cursor_present =
        std::binary_search(numbers.begin(), numbers.end(), cursor_segment_);
    if (!cursor_present) {
      if (numbers.back() > cursor_segment_) {
        // The stream continues past a segment we never finished: bytes are
        // gone for good. Refusing is the whole point — applying around a
        // hole would silently diverge from the primary.
        return MarkCorruptLocked(Status::Corruption(
            "ship stream gap: segment " + std::to_string(cursor_segment_) +
            " missing but later segments exist"));
      }
      caught_up_ = true;  // ahead of everything shipped
      return Status::OK();
    }
    bool leftover = false;
    STREAMSI_RETURN_NOT_OK(ApplySegmentLocked(
        GroupCommitLog::SegmentPath(log_root_, cursor_segment_), &leftover));
    const bool next_present = std::binary_search(
        numbers.begin(), numbers.end(), cursor_segment_ + 1);
    if (!next_present) {
      if (numbers.back() > cursor_segment_) {
        return MarkCorruptLocked(Status::Corruption(
            "ship stream gap: segment " +
            std::to_string(cursor_segment_ + 1) +
            " skipped but later segments exist"));
      }
      // Newest shipped segment (the primary's live one). Incomplete tail
      // bytes are a chunk still in flight — the shipper completes them
      // byte-identically next round; never skip within a segment.
      caught_up_ = !leftover;
      return Status::OK();
    }
    if (leftover) {
      // Closed on the primary, but our copy still ends mid-frame (a crash
      // on either side tore the last chunk). Wait: the re-shipped
      // completion is byte-identical, or promotion-time recovery truncates
      // a tail the dead primary never made durable (unacked by definition).
      caught_up_ = false;
      return Status::OK();
    }
    cursor_segment_ += 1;
    cursor_offset_ = 0;
  }
}

Status FollowerApplier::ApplySegmentLocked(const std::string& path,
                                           bool* leftover) {
  *leftover = false;
  std::string contents;
  STREAMSI_RETURN_NOT_OK(env_->ReadFileToString(path, &contents));
  const char* base = contents.data();
  std::uint64_t pos = std::min<std::uint64_t>(cursor_offset_, contents.size());
  while (pos + 9 <= contents.size()) {
    const char* p = base + pos;
    const std::uint32_t stored_crc = UnmaskCrc(DecodeFixed32(p));
    const std::uint32_t len = DecodeFixed32(p + 4);
    if (len > contents.size() - pos - 9) break;  // incomplete frame
    if (options_.verify_crc &&
        Crc32c(std::string_view(p + 8, 1 + len)) != stored_crc) {
      break;  // incomplete: a torn chunk completes byte-identically later
    }
    const auto type = static_cast<WalRecordType>(p[8]);
    const Status status =
        ApplyRecordLocked(type, std::string_view(p + 9, len));
    if (!status.ok()) {
      if (status.IsCorruption()) return MarkCorruptLocked(status);
      return status;  // transient: retry the SAME frame next round
    }
    pos += 9 + static_cast<std::uint64_t>(len);
    cursor_offset_ = pos;
    stats_.records_applied += 1;
  }
  *leftover = pos < contents.size();
  return Status::OK();
}

Status FollowerApplier::ApplyRecordLocked(WalRecordType type,
                                          std::string_view payload) {
  switch (type) {
    case WalRecordType::kReplicatedCommit:
      return ApplyReplicatedCommitLocked(payload);
    case WalRecordType::kCheckpointCut:
      return ApplyCheckpointCutLocked(payload);
    case WalRecordType::kGroupCommit:
    case WalRecordType::kCheckpoint:
      // A commit record without its write sets cannot be replayed here —
      // the primary's log predates data-carrying records. Divergence, not
      // progress: refuse.
      return Status::Corruption(
          "shipped stream contains a data-less commit record "
          "(primary log predates data-carrying records)");
    default:
      return Status::OK();  // future record kinds: skip
  }
}

Status FollowerApplier::ApplyReplicatedCommitLocked(std::string_view payload) {
  CommitRecord record;
  STREAMSI_RETURN_NOT_OK(DecodeCommitRecord(payload, &record));
  const std::size_t known_groups = context_->GroupCount();
  for (GroupId group : record.groups) {
    if (group >= known_groups) {
      // The declaring catalog chunk has not landed yet; retry next round.
      return Status::Busy("follower catalog behind: unknown group " +
                          std::to_string(group));
    }
  }
  // A transient failure mid-record leaves a partial, UNPUBLISHED apply; the
  // retry re-installs only what is missing and only then publishes.
  STREAMSI_RETURN_NOT_OK(ReplayCommitWriteSets(
      record,
      [&](StateId state, VersionedStore** store) {
        *store = hooks_.resolve ? hooks_.resolve(state) : nullptr;
        if (*store == nullptr) {
          return Status::Busy("follower catalog behind: unknown state " +
                              std::to_string(state));
        }
        return Status::OK();
      },
      context_));
  // Same publication seqlock the primary's committers use: concurrent
  // follower readers see the multi-group advance atomically (§4.3).
  context_->PublishCommit(record.groups.data(), record.groups.size(),
                          record.cts);
  context_->clock().AdvanceTo(record.cts);
  stats_.commits_applied += 1;
  stats_.follower_watermark =
      std::max(stats_.follower_watermark, record.cts);
  return Status::OK();
}

Status FollowerApplier::ApplyCheckpointCutLocked(std::string_view payload) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  std::uint32_t count = 0;
  p = GetVarint32(p, limit, &count);
  if (p == nullptr || count > payload.size()) {
    return Status::Corruption("bad shipped checkpoint cut");
  }
  const std::size_t known_groups = context_->GroupCount();
  for (std::uint32_t i = 0; i < count; ++i) {
    GroupId group = kInvalidGroupId;
    std::uint64_t cts = 0;
    p = GetVarint32(p, limit, &group);
    if (p != nullptr) p = GetVarint64(p, limit, &cts);
    if (p == nullptr) return Status::Corruption("bad shipped cut entry");
    if (group >= known_groups) {
      return Status::Busy("follower catalog behind: unknown group " +
                          std::to_string(group));
    }
    // Every commit covered by the cut was durable + drained on the primary
    // BEFORE the cut record was written, i.e. it sits in older shipped
    // bytes we have already applied. A cut ahead of our applied state means
    // commit records are missing from the stream: a gap, not staleness.
    if (cts > context_->LastCts(group)) {
      return Status::Corruption(
          "shipped checkpoint cut ahead of applied stream (group " +
          std::to_string(group) + " cut " + std::to_string(cts) +
          " > applied " + std::to_string(context_->LastCts(group)) + ")");
    }
  }
  return Status::OK();  // cut fully subsumed by applied records
}

void FollowerApplier::RefreshWatermarksLocked() const {
  std::string contents;
  if (env_->FileExists(watermark_path_) &&
      env_->ReadFileToString(watermark_path_, &contents).ok()) {
    const Timestamp advertised = std::strtoull(contents.c_str(), nullptr, 10);
    stats_.primary_watermark =
        std::max(stats_.primary_watermark, advertised);
  }
  Timestamp applied = stats_.follower_watermark;
  const std::size_t groups = context_->GroupCount();
  for (std::size_t g = 0; g < groups; ++g) {
    applied = std::max(applied, context_->LastCts(static_cast<GroupId>(g)));
  }
  stats_.follower_watermark = applied;
  stats_.staleness_lag = stats_.primary_watermark > applied
                             ? stats_.primary_watermark - applied
                             : 0;
}

Status FollowerApplier::DrainFully(int max_rounds) {
  Status last;
  for (int i = 0; i < max_rounds; ++i) {
    last = ApplyOnce();
    if (last.IsCorruption()) return last;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      if (last.ok() && caught_up_) return Status::OK();
    }
  }
  return last.ok() ? Status::Unavailable(
                         "follower did not catch up with the shipped stream")
                   : last;
}

bool FollowerApplier::CaughtUp() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return caught_up_;
}

Status FollowerApplier::sticky_status() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return sticky_;
}

ReplicationStats FollowerApplier::Stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  RefreshWatermarksLocked();
  return stats_;
}

}  // namespace streamsi
