// FollowerApplier: the follower side of single-primary log shipping.
//
// A background loop replays the shipped group-commit chain continuously:
// for each complete, CRC-valid frame past its cursor it decodes the record
// and re-drives the primary's publication through the follower's OWN
// machinery — kReplicatedCommit installs the carried write sets through
// ReplayCommitWriteSets (the replay recovery uses too), then publishes the
// multi-group LastCTS advance through the same publication seqlock
// committers use, so
// concurrent snapshot readers on the follower keep the §4.3 guarantee:
// they pin a per-group LastCTS cut and never observe half of a multi-store
// commit. The cursor only ever advances over whole frames.
//
// Refusal beats divergence. A hole in the stream — the cursor's segment
// vanished while later ones exist, a successor number is skipped, a
// checkpoint cut references commits newer than everything applied, or a
// commit record without write sets (a log older than data-carrying
// records) — is
// Corruption: sticky, reported through Health(), applying stops for good.
// A CRC-broken tail is simply *incomplete* (the shipper re-ships its
// completion byte-identically), so the applier waits; it never skips bytes
// within a segment. Transient problems (unknown state: catalog chunk not
// landed yet; IO errors) are retried next round — re-applying a partially
// applied record is idempotent, the same versions land at the same cts and
// publication is monotone.
//
// `Options::verify_crc = false` is the torture harness's negative control:
// it applies frames without checking CRCs, which is exactly the corruption
// the CRC exists to stop — the two-node harness proves the end-to-end
// verifier catches the resulting divergence.

#ifndef STREAMSI_REPLICATION_FOLLOWER_APPLIER_H_
#define STREAMSI_REPLICATION_FOLLOWER_APPLIER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "replication/transport.h"
#include "storage/wal.h"
#include "txn/state_context.h"
#include "txn/versioned_store.h"

namespace streamsi {

/// Defined outside FollowerApplier so it is complete (default member
/// initializers parsed) where the constructor's default argument needs it.
struct FollowerApplierOptions {
  /// Sleep between apply rounds.
  std::uint32_t interval_ms = 2;
  /// Negative-control knob (torture harness): false applies shipped
  /// frames without CRC verification.
  bool verify_crc = true;
};

class FollowerApplier {
 public:
  using Options = FollowerApplierOptions;

  /// The database half of the applier. All callbacks are invoked from the
  /// apply thread; none may call back into the applier (deadlock).
  struct Hooks {
    /// Replays the shipped catalog tail (states/groups declared on the
    /// primary since the last refresh). Called once per round, before any
    /// frame is applied.
    std::function<Status()> refresh_catalog;
    /// StateId -> store; nullptr when unknown (catalog not caught up yet).
    std::function<VersionedStore*(StateId)> resolve;
    /// Sticky-corruption escalation (the database fails the instance).
    std::function<void(const Status&)> on_corruption;
  };

  FollowerApplier(Env* env, std::string log_root, std::string watermark_path,
                  StateContext* context, Hooks hooks, Options options = Options());
  ~FollowerApplier();

  void Start();
  void Stop();

  /// One apply round: refresh catalog, replay complete frames from the
  /// cursor across all shipped segments, refresh watermarks. Public for
  /// manual pumping in tests.
  Status ApplyOnce();

  /// Promotion drain: repeats ApplyOnce until every complete shipped frame
  /// is applied. Returns the sticky Corruption if the stream was refused,
  /// or Unavailable if the stream would not settle within `max_rounds`.
  Status DrainFully(int max_rounds = 64);

  /// True when the last round consumed every complete shipped frame.
  bool CaughtUp() const;

  /// OK, or the sticky Corruption that stopped the applier for good.
  Status sticky_status() const;

  /// Re-reads the shipped primary watermark before reporting, so the
  /// staleness lag reflects what has ARRIVED, not just the last apply
  /// round — Health() stays honest between rounds.
  ReplicationStats Stats() const;

 private:
  void Loop();
  Status ApplyOnceLocked();
  /// Applies complete frames of the cursor segment; `leftover` reports
  /// whether incomplete/unverified bytes remain past the cursor.
  Status ApplySegmentLocked(const std::string& path, bool* leftover);
  Status ApplyRecordLocked(WalRecordType type, std::string_view payload);
  Status ApplyReplicatedCommitLocked(std::string_view payload);
  Status ApplyCheckpointCutLocked(std::string_view payload);
  Status MarkCorruptLocked(Status status);
  void RefreshWatermarksLocked() const;

  Env* env_;
  const std::string log_root_;
  const std::string watermark_path_;
  StateContext* context_;
  const Hooks hooks_;
  const Options options_;

  // Cursor + stats + sticky state, all under mutex_. ApplyOnce holds the
  // mutex for the whole round; Stats()/CaughtUp() are observers.
  mutable std::mutex mutex_;
  std::uint64_t cursor_segment_ = 0;
  std::uint64_t cursor_offset_ = 0;
  bool cursor_started_ = false;
  bool caught_up_ = false;
  Status sticky_;
  mutable ReplicationStats stats_;  ///< watermarks refresh in const Stats()

  std::mutex loop_mutex_;
  std::condition_variable loop_cv_;
  bool stop_ = false;  ///< under loop_mutex_
  std::thread thread_;
};

}  // namespace streamsi

#endif  // STREAMSI_REPLICATION_FOLLOWER_APPLIER_H_
