// Recovery-path benchmark (durability lifecycle): restart-to-ready time as
// a function of commit-history length, with and without a checkpoint, and
// the commit-throughput cost of a background checkpointer writing images.
//
// Emitted as one JSON document on stdout so bench/run_bench.sh can archive
// it as BENCH_recovery_path.json:
//
//   recovery/no_checkpoint   restart-to-ready (Database::Open on a durable
//                            directory: catalog replay, parallel image
//                            load + purge, group-log replay including the
//                            redo of every record, clock fast-forward)
//                            after N commits with NO checkpoint — grows
//                            with N. log_bytes_per_commit is the size of
//                            one data-carrying commit record.
//   recovery/checkpoint      the same after a Checkpoint(): the group log
//                            is one cut record and the images hold the
//                            data — restart work is bounded by data since
//                            the checkpoint, so the time stays flat as N
//                            grows 10x.
//   recovery/log_tail        restart after a checkpointed history of
//                            kTailBase commits plus N commits since the
//                            checkpoint: image load + redo of the N-record
//                            log tail.
//   commit/during_checkpoint commit throughput (SyncMode::kSimulated) with
//                            a background checkpointer every 50 ms writing
//                            images, against none: checkpoints run beside
//                            the commit path, never on it.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/streamsi.h"

namespace streamsi {
namespace {

constexpr std::uint64_t kSimulatedSyncMicros = 5;
constexpr int kHotKeys = 256;
constexpr int kTailBase = 2500;

DatabaseOptions MakeOptions(const std::string& dir) {
  DatabaseOptions options;
  options.protocol = ProtocolType::kMvcc;
  options.backend = BackendType::kLsm;
  options.backend_options.sync_mode = SyncMode::kSimulated;
  options.backend_options.simulated_sync_micros = kSimulatedSyncMicros;
  options.base_dir = dir;
  return options;
}

struct RestartResult {
  double restart_ms = 0.0;
  std::uint64_t log_bytes = 0;
  std::uint64_t records_replayed = 0;
  bool from_checkpoint = false;
};

void CommitHotKeys(Database& db, StateId id, int commits) {
  const std::string value(64, 'v');
  for (int i = 0; i < commits; ++i) {
    auto t = db.Begin();
    if (!t.ok()) std::abort();
    const std::string key = "key-" + std::to_string(i % kHotKeys);
    if (!db.txn_manager().Write((*t)->txn(), id, key, value).ok()) {
      std::abort();
    }
    if (!(*t)->Commit().ok()) std::abort();
  }
}

/// Life 1: `base` transactions over a hot key set, a checkpoint when
/// requested, then `tail` more transactions; crash. Life 2: measure
/// Database::Open until ready-to-serve.
RestartResult RunRestart(int base, bool checkpoint, int tail,
                         const std::string& dir) {
  (void)fsutil::RemoveDirRecursive(dir);
  const DatabaseOptions options = MakeOptions(dir);
  RestartResult result;
  {
    auto db = Database::Open(options);
    if (!db.ok()) std::abort();
    auto state = (*db)->CreateState("s");
    if (!state.ok()) std::abort();
    if (!(*db)->Recover().ok()) std::abort();
    const StateId id = (*state)->id();
    CommitHotKeys(**db, id, base);
    if (checkpoint && !(*db)->Checkpoint().ok()) std::abort();
    CommitHotKeys(**db, id, tail);
    result.log_bytes = (*db)->group_log()->TotalSizeBytes();
  }

  const auto t0 = std::chrono::steady_clock::now();
  auto db = Database::Open(options);  // catalog reopen + recovery inside
  if (!db.ok()) std::abort();
  // Ready-to-serve means a transaction can read recovered data.
  {
    auto t = (*db)->Begin();
    if (!t.ok()) std::abort();
    std::string got;
    VersionedStore* store = (*db)->FindState("s");
    if (store == nullptr) std::abort();
    if (!(*db)->txn_manager()
             .Read((*t)->txn(), store->id(), "key-0", &got)
             .ok()) {
      std::abort();
    }
    if (!(*t)->Commit().ok()) std::abort();
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.restart_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();

  GroupCommitLog::ReplayInfo info;
  if (GroupCommitLog::Replay(dir + "/group_commits.log", &info).ok()) {
    result.records_replayed = info.records;
    result.from_checkpoint = info.from_checkpoint;
  }
  return result;
}

/// Commit throughput with 4 committers against one LSM state, with or
/// without a background checkpointer (the experiment variable).
struct CheckpointLoadResult {
  double commits_per_s = 0.0;
  std::uint64_t checkpoints = 0;
};

CheckpointLoadResult RunDuringCheckpoint(std::uint32_t checkpoint_interval_ms,
                                         const std::string& dir) {
  (void)fsutil::RemoveDirRecursive(dir);
  DatabaseOptions options = MakeOptions(dir);
  options.checkpoint_interval_ms = checkpoint_interval_ms;
  auto db = Database::Open(options);
  if (!db.ok()) std::abort();
  auto state = (*db)->CreateState("s");
  if (!state.ok()) std::abort();
  if (!(*db)->Recover().ok()) std::abort();
  const StateId id = (*state)->id();
  const std::string value(128, 'v');

  constexpr int kCommitters = 4;
  constexpr auto kDuration = std::chrono::milliseconds(1000);
  std::atomic<std::uint64_t> total{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kCommitters; ++w) {
    threads.emplace_back([&, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto t = (*db)->Begin();
        if (!t.ok()) std::abort();
        const std::string key =
            "key-" + std::to_string(w) + "-" + std::to_string(i++ % 512);
        if (!(*db)->txn_manager().Write((*t)->txn(), id, key, value).ok()) {
          std::abort();
        }
        if (!(*t)->Commit().ok()) std::abort();
        total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(kDuration);
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  const auto t1 = std::chrono::steady_clock::now();

  CheckpointLoadResult result;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  result.commits_per_s = static_cast<double>(total.load()) / seconds;
  result.checkpoints = (*db)->CheckpointCount();
  return result;
}

}  // namespace
}  // namespace streamsi

int main() {
  using namespace streamsi;

  const std::string dir = "/tmp/streamsi_bench_recovery_path";
  (void)fsutil::CreateDirIfMissing(dir);

  std::printf("{\n");
  std::printf("  \"simulated_sync_micros\": %llu,\n",
              static_cast<unsigned long long>(kSimulatedSyncMicros));
  std::printf("  \"hot_keys\": %d,\n", kHotKeys);
  std::printf("  \"log_tail_base_commits\": %d,\n", kTailBase);
  std::printf("  \"benchmarks\": [\n");
  bool first = true;
  const auto print_restart = [&](const char* name, int commits,
                                 const RestartResult& r) {
    if (!first) std::printf(",\n");
    first = false;
    std::printf(
        "    {\"name\": \"%s\", \"commits\": %d, \"restart_ms\": %.2f, "
        "\"log_bytes\": %llu, \"log_bytes_per_commit\": %.1f, "
        "\"records_replayed\": %llu, \"from_checkpoint\": %s}",
        name, commits, r.restart_ms,
        static_cast<unsigned long long>(r.log_bytes),
        static_cast<double>(r.log_bytes) / commits,
        static_cast<unsigned long long>(r.records_replayed),
        r.from_checkpoint ? "true" : "false");
    std::fflush(stdout);
  };
  const int history_lengths[] = {250, 1000, 2500};
  for (const bool checkpoint : {false, true}) {
    for (const int commits : history_lengths) {
      print_restart(checkpoint ? "recovery/checkpoint" : "recovery/no_checkpoint",
                    commits,
                    RunRestart(commits, checkpoint, 0, dir + "/restart"));
    }
  }
  // Tail rows: "commits" counts the commits since the checkpoint.
  for (const int tail : history_lengths) {
    print_restart("recovery/log_tail", tail,
                  RunRestart(kTailBase, true, tail, dir + "/restart"));
  }
  for (const std::uint32_t interval_ms : {0u, 50u}) {
    const CheckpointLoadResult r =
        RunDuringCheckpoint(interval_ms, dir + "/load");
    std::printf(",\n");
    std::printf(
        "    {\"name\": \"commit/during_checkpoint\", "
        "\"checkpoint_interval_ms\": %u, \"commits_per_s\": %.0f, "
        "\"checkpoints\": %llu}",
        interval_ms, r.commits_per_s,
        static_cast<unsigned long long>(r.checkpoints));
    std::fflush(stdout);
  }
  std::printf("\n  ]\n}\n");
  (void)fsutil::RemoveDirRecursive(dir);
  return 0;
}
