// Replication transport: how a primary's log bytes reach a follower.
//
// Single-primary log shipping (see src/README.md §replication): the
// LogShipper streams the group-commit segment chain + the state catalog as
// append-only byte ranges; the ShipTransport abstracts the wire. The first
// implementation is in-process/Env-file based — the "network" is a
// directory on the follower's Env, so FaultEnv can cut power on either
// side and the two-node torture harness stays fully deterministic. A real
// socket transport would implement the same three operations.
//
// This header also carries the replication vocabulary shared by Database,
// LogShipper and FollowerApplier (role enum + stats struct) so that
// core/database.h needs only this one light include.

#ifndef STREAMSI_REPLICATION_TRANSPORT_H_
#define STREAMSI_REPLICATION_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/env.h"
#include "common/status.h"
#include "txn/types.h"

namespace streamsi {

/// A database's place in a replication pair.
enum class ReplicationRole {
  kNone,      ///< standalone (no shipping)
  kPrimary,   ///< accepts writes, ships its log through a ShipTransport
  kFollower,  ///< replays the shipped log, serves snapshot reads; writable
              ///< only after Promote()
};

/// Observability snapshot of one side of the replication link (exposed via
/// Database::Health()). Shipper-side counters are zero on a follower and
/// vice versa.
struct ReplicationStats {
  /// The background ship/apply thread is running.
  bool active = false;
  /// False once the ship retry budget is exhausted or the applier refused
  /// the stream; recovers on the next successful round (shipper side only
  /// — an applier's Corruption is sticky).
  bool link_healthy = true;
  /// Most recent ship/apply failure (sticky for applier Corruption).
  Status last_error;
  std::uint64_t bytes_shipped = 0;
  std::uint64_t ship_rounds = 0;
  /// Failed ship/apply rounds that were retried.
  std::uint64_t transient_failures = 0;
  /// Frames replayed from the shipped stream (follower side).
  std::uint64_t records_applied = 0;
  /// kReplicatedCommit records installed + published (follower side).
  std::uint64_t commits_applied = 0;
  /// Highest commit timestamp the primary advertised (beacon file).
  Timestamp primary_watermark = 0;
  /// Highest commit timestamp the follower has applied + published.
  Timestamp follower_watermark = 0;
  /// Staleness: max(0, primary_watermark - follower_watermark). Monotone
  /// non-negative; converges to 0 against an idle primary.
  Timestamp staleness_lag = 0;
};

/// Name of the primary-watermark beacon inside the follower's directory
/// (published atomically; the applier reads it to compute staleness lag).
inline constexpr char kPrimaryWatermarkFile[] = "PRIMARY_WATERMARK";

/// The wire. All three operations are idempotent-by-offset: the shipper
/// drives them from the receiver's current Size(), so a crash on either
/// side simply re-syncs on the next round.
class ShipTransport {
 public:
  virtual ~ShipTransport() = default;

  /// Bytes of `name` the receiver already has (0 if it does not exist yet).
  virtual Result<std::uint64_t> Size(const std::string& name) = 0;

  /// Appends `data` to `name`, requiring the receiver's current size to be
  /// exactly `offset` (stale-view protection). Durable on return.
  virtual Status Append(const std::string& name, std::uint64_t offset,
                        std::string_view data) = 0;

  /// Publishes the primary's commit watermark (atomic replace; readers on
  /// the follower never see a torn value).
  virtual Status PublishWatermark(Timestamp watermark) = 0;
};

/// In-process transport: shipped files materialize in `follower_dir` on the
/// FOLLOWER's Env — exactly the layout FollowerDatabase replays, and the
/// follower's FaultEnv gets to fail/cut every landed byte.
class EnvFileTransport final : public ShipTransport {
 public:
  /// `follower_env` may be nullptr (Env::Default()); `follower_dir` is the
  /// follower database's base_dir.
  EnvFileTransport(Env* follower_env, std::string follower_dir);

  Result<std::uint64_t> Size(const std::string& name) override;
  Status Append(const std::string& name, std::uint64_t offset,
                std::string_view data) override;
  Status PublishWatermark(Timestamp watermark) override;

 private:
  Status EnsureDirLocked();

  Env* env_;
  const std::string dir_;
  std::mutex mutex_;
  bool dir_created_ = false;  ///< under mutex_
  /// Cached append handles (one open per file, not per chunk). Dropped on
  /// any failure so the next chunk reattaches to the post-crash node.
  std::map<std::string, std::unique_ptr<WritableFile>> open_;  ///< under mutex_
};

}  // namespace streamsi

#endif  // STREAMSI_REPLICATION_TRANSPORT_H_
