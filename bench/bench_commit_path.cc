// Commit-path microbenchmark (§4.2: "writes are merely appended"; §5: the
// paper's evaluation depends on synchronous writes dominating commit cost).
//
// Three sections, emitted as one JSON document on stdout so
// bench/run_bench.sh can archive the numbers as BENCH_commit_path.json:
//
//   commit/<sync>    end-to-end commit throughput through the full
//                    TransactionManager pipeline (validate, apply, durable
//                    group-commit record, publish) at 1..16 concurrent
//                    committers, with the group-commit log in
//                    SyncMode::kSimulated (50us per sync — the paper's
//                    "fsync dominates" shape) and SyncMode::kNone (pure
//                    CPU path: write-set churn + bookkeeping + publication).
//   hot_key_churn    commit throughput when every committer overwrites its
//                    own hot key while ONE lagging reader holds snapshot
//                    pins across dozens of commits — the adaptive
//                    version-array growth + bounded-backpressure workload
//                    (pre-PR 4 this failed commits with ResourceExhausted
//                    once a key outran mvcc_slots under the pin). Reports
//                    slot growths, wait stalls and failed commits.
//   write_set        ns/op for the transaction-private dirty array: first
//                    Put, in-place overwrite Put, and the read-your-own-
//                    writes probe, measured on a reused (steady-state)
//                    write set, plus heap allocations per reuse cycle.
//
// The "seed_baseline" block records the same numbers measured at the PR 1
// tree (per-record synced WAL appends, eager per-commit GC floors,
// std::string/unordered_map write sets) on this container, so before/after
// is tracked in one artifact.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/group_commit_log.h"
#include "core/transaction_manager.h"
#include "storage/hash_backend.h"
#include "txn/protocol.h"
#include "txn/si_protocol.h"

// ---------------------------------------------------------------------------
// Heap-allocation counter (same technique as the allocation tests): global
// operator new overridden binary-wide so the write-set section can report
// allocations per steady-state cycle.
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
std::atomic<bool> g_count_heap_allocations{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_heap_allocations.load(std::memory_order_relaxed)) {
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace streamsi {
namespace {

constexpr int kWritesPerTxn = 4;
constexpr std::uint64_t kKeysPerThread = 1024;
constexpr auto kDuration = std::chrono::milliseconds(300);
constexpr std::uint64_t kSimulatedSyncMicros = 50;

struct CommitResult {
  double commits_per_s = 0.0;
  double us_per_commit = 0.0;
};

/// Full manager pipeline against one in-memory state with a durable
/// group-commit log (the log's SyncMode is the experiment variable).
/// `batched_validation`: -1 leaves the SI default, 0/1 force per-key or
/// batch-amortized Phase-1 validation (the batch_validate sweep).
CommitResult RunCommitters(SyncMode sync_mode, int committers,
                           const std::string& dir,
                           int writes_per_txn = kWritesPerTxn,
                           int batched_validation = -1) {
  StateContext context;
  const StateId state = context.RegisterState("bench");
  context.RegisterGroup({state});

  StoreOptions store_options;
  VersionedStore store(state, "bench", std::make_unique<HashTableBackend>(),
                       store_options);

  GroupCommitLog log(sync_mode, kSimulatedSyncMicros);
  if (!log.Open(dir + "/group_commits.log").ok()) std::abort();

  auto protocol = MakeProtocol(ProtocolType::kMvcc, &context);
  if (batched_validation >= 0) {
    static_cast<SiProtocol*>(protocol.get())
        ->set_batched_validation(batched_validation != 0);
  }
  TransactionManager manager(
      &context, protocol.get(),
      [&](StateId id) { return id == state ? &store : nullptr; }, &log,
      /*durable_group_log=*/true);

  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> total_commits{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(committers));
  for (int t = 0; t < committers; ++t) {
    threads.emplace_back([&, t] {
      // Disjoint per-thread key ranges: no First-Committer-Wins conflicts,
      // the measurement is pure commit-path cost.
      std::vector<std::string> keys;
      keys.reserve(kKeysPerThread);
      for (std::uint64_t k = 0; k < kKeysPerThread; ++k) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "key-%03d-%05llu", t,
                      static_cast<unsigned long long>(k));
        keys.emplace_back(buf);
      }
      const std::string value(64, 'v');
      std::uint64_t commits = 0;
      std::uint64_t cursor = 0;
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        auto handle = manager.Begin();
        if (!handle.ok()) continue;
        bool ok = true;
        for (int w = 0; w < writes_per_txn && ok; ++w) {
          ok = manager
                   .Write((*handle)->txn(), state,
                          keys[cursor++ % kKeysPerThread], value)
                   .ok();
        }
        if (ok && manager.Commit((*handle)->txn()).ok()) ++commits;
      }
      total_commits.fetch_add(commits, std::memory_order_relaxed);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(kDuration);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  (void)log.Close();
  (void)fsutil::RemoveFile(dir + "/group_commits.log");

  CommitResult result;
  const double commits = static_cast<double>(total_commits.load());
  result.commits_per_s = commits / seconds;
  result.us_per_commit =
      commits > 0 ? seconds * 1e6 * committers / commits : 0.0;
  return result;
}

struct HotKeyResult {
  double commits_per_s = 0.0;
  std::uint64_t failed_commits = 0;
  std::uint64_t slot_growths = 0;
  std::uint64_t version_wait_stalls = 0;
};

/// Hot-key churn under a lagging reader pin: each committer overwrites ONE
/// private key as fast as it can while a reader transaction holds a snapshot
/// pin for ~5 ms at a time — long enough (on this 1-core container, where a
/// descheduled reader already produced the effect) that every hot key's
/// version array fills with pinned versions and must grow / wait instead of
/// failing the commit. Disjoint keys keep First-Committer-Wins conflicts out
/// of the measurement.
HotKeyResult RunHotKeyChurn(int committers, const std::string& dir) {
  StateContext context;
  const StateId state = context.RegisterState("bench");
  context.RegisterGroup({state});

  StoreOptions store_options;
  // Defaults on purpose: mvcc_slots = 4, growth to 64, 200 ms wait budget —
  // the production shape the partitioned stream stress runs with.
  VersionedStore store(state, "bench", std::make_unique<HashTableBackend>(),
                       store_options);

  GroupCommitLog log(SyncMode::kNone, 0);
  if (!log.Open(dir + "/group_commits.log").ok()) std::abort();

  auto protocol = MakeProtocol(ProtocolType::kMvcc, &context);
  TransactionManager manager(
      &context, protocol.get(),
      [&](StateId id) { return id == state ? &store : nullptr; }, &log,
      /*durable_group_log=*/true);

  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> total_commits{0};
  std::atomic<std::uint64_t> failed_commits{0};

  // The lagging reader: pins a snapshot (first read per group), sits on it,
  // ends, repeats. While it sits, every overwrite of a hot key stays
  // visible to its pin and cannot be reclaimed.
  std::thread reader([&] {
    std::string value;
    while (!stop.load(std::memory_order_relaxed)) {
      auto handle = manager.Begin();
      if (!handle.ok()) continue;
      (void)manager.Read((*handle)->txn(), state, "hot-000", &value);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      (void)(*handle)->Commit();
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(committers));
  for (int t = 0; t < committers; ++t) {
    threads.emplace_back([&, t] {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "hot-%03d", t);
      const std::string key(buf);
      const std::string value(64, 'v');
      std::uint64_t commits = 0;
      std::uint64_t failures = 0;
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        auto handle = manager.Begin();
        if (!handle.ok()) continue;
        if (!manager.Write((*handle)->txn(), state, key, value).ok()) {
          continue;
        }
        if (manager.Commit((*handle)->txn()).ok()) {
          ++commits;
        } else {
          ++failures;
        }
      }
      total_commits.fetch_add(commits, std::memory_order_relaxed);
      failed_commits.fetch_add(failures, std::memory_order_relaxed);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(kDuration);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  reader.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  (void)log.Close();
  (void)fsutil::RemoveFile(dir + "/group_commits.log");

  HotKeyResult result;
  result.commits_per_s = static_cast<double>(total_commits.load()) / seconds;
  result.failed_commits = failed_commits.load();
  result.slot_growths = store.stats().slot_growths.load();
  result.version_wait_stalls = store.stats().version_wait_stalls.load();
  return result;
}

struct ChurnResult {
  double first_put_ns = 0.0;
  double update_put_ns = 0.0;
  double probe_ns = 0.0;
  std::uint64_t allocs_per_cycle = 0;
};

/// Steady-state write-set churn: the same WriteSet object is reused
/// (Clear + refill) the way a pooled per-slot write set is across
/// transactions; keys are long enough to defeat SSO.
ChurnResult RunWriteSetChurn() {
  constexpr int kKeys = 64;
  constexpr int kCycles = 20000;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "churn-key-%012d", i);
    keys.emplace_back(buf);
  }
  const std::string value(64, 'v');

  WriteSet ws;
  // Warm up to the steady state (arena/index/table at high-water mark).
  for (int i = 0; i < kKeys; ++i) ws.Put(keys[static_cast<std::size_t>(i)],
                                         value);
  ws.Clear();

  using Clock = std::chrono::steady_clock;
  std::uint64_t first_ns = 0;
  std::uint64_t update_ns = 0;
  std::uint64_t probe_ns = 0;
  std::uint64_t probe_hits = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    auto t0 = Clock::now();
    for (const auto& key : keys) ws.Put(key, value);
    auto t1 = Clock::now();
    for (const auto& key : keys) ws.Put(key, value);  // in-place overwrite
    auto t2 = Clock::now();
    for (const auto& key : keys) probe_hits += ws.Contains(key) ? 1 : 0;
    auto t3 = Clock::now();
    ws.Clear();
    first_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    update_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count());
    probe_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2)
            .count());
  }
  if (probe_hits != static_cast<std::uint64_t>(kKeys) * kCycles) std::abort();

  // One measured steady-state cycle for the allocation count.
  g_heap_allocations.store(0, std::memory_order_relaxed);
  g_count_heap_allocations.store(true, std::memory_order_relaxed);
  for (const auto& key : keys) ws.Put(key, value);
  for (const auto& key : keys) probe_hits += ws.Contains(key) ? 1 : 0;
  ws.Clear();
  g_count_heap_allocations.store(false, std::memory_order_relaxed);

  const double ops = static_cast<double>(kKeys) * kCycles;
  ChurnResult result;
  result.first_put_ns = static_cast<double>(first_ns) / ops;
  result.update_put_ns = static_cast<double>(update_ns) / ops;
  result.probe_ns = static_cast<double>(probe_ns) / ops;
  result.allocs_per_cycle = g_heap_allocations.load(std::memory_order_relaxed);
  return result;
}

const char* SyncName(SyncMode mode) {
  switch (mode) {
    case SyncMode::kNone:
      return "none";
    case SyncMode::kFsync:
      return "fsync";
    case SyncMode::kSimulated:
      return "simulated";
  }
  return "?";
}

}  // namespace
}  // namespace streamsi

int main() {
  using namespace streamsi;

  std::string dir = "/tmp/streamsi_bench_commit_path";
  (void)fsutil::CreateDirIfMissing(dir);

  const int thread_counts[] = {1, 2, 4, 8, 16};
  const SyncMode modes[] = {SyncMode::kSimulated, SyncMode::kNone};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("{\n");
  std::printf("  \"writes_per_txn\": %d,\n", kWritesPerTxn);
  std::printf("  \"simulated_sync_micros\": %llu,\n",
              static_cast<unsigned long long>(kSimulatedSyncMicros));
  std::printf("  \"hardware_threads\": %d,\n", hw);
  std::printf("  \"benchmarks\": [\n");
  bool first = true;
  for (const SyncMode mode : modes) {
    double base = 0.0;
    for (const int committers : thread_counts) {
      const CommitResult r = RunCommitters(mode, committers, dir);
      if (committers == 1) base = r.commits_per_s;
      if (!first) std::printf(",\n");
      first = false;
      std::printf(
          "    {\"name\": \"commit/%s\", \"committers\": %d, "
          "\"commits_per_s\": %.0f, \"us_per_commit\": %.1f, "
          "\"scaling\": %.2f}",
          SyncName(mode), committers, r.commits_per_s, r.us_per_commit,
          base > 0 ? r.commits_per_s / base : 0.0);
      std::fflush(stdout);
    }
  }
  for (const int committers : thread_counts) {
    const HotKeyResult r = RunHotKeyChurn(committers, dir);
    std::printf(",\n");
    std::printf(
        "    {\"name\": \"commit/hot_key_churn\", \"committers\": %d, "
        "\"commits_per_s\": %.0f, \"failed_commits\": %llu, "
        "\"slot_growths\": %llu, \"version_wait_stalls\": %llu}",
        committers, r.commits_per_s,
        static_cast<unsigned long long>(r.failed_commits),
        static_cast<unsigned long long>(r.slot_growths),
        static_cast<unsigned long long>(r.version_wait_stalls));
    std::fflush(stdout);
  }
  // Batch-validate sweep: per-key vs batch-amortized SI Phase-1 validation
  // on the pure-CPU path. scaling on batched rows is vs the per-key row at
  // the same (writes_per_txn, committers).
  for (const int writes : {4, 16}) {
    for (const int committers : {1, 8}) {
      const CommitResult per_key =
          RunCommitters(SyncMode::kNone, committers, dir, writes,
                        /*batched_validation=*/0);
      const CommitResult batched =
          RunCommitters(SyncMode::kNone, committers, dir, writes,
                        /*batched_validation=*/1);
      std::printf(",\n");
      std::printf(
          "    {\"name\": \"commit/batch_validate\", \"mode\": \"per_key\", "
          "\"writes_per_txn\": %d, \"committers\": %d, "
          "\"commits_per_s\": %.0f, \"us_per_commit\": %.1f, "
          "\"scaling\": 1.00},\n",
          writes, committers, per_key.commits_per_s, per_key.us_per_commit);
      std::printf(
          "    {\"name\": \"commit/batch_validate\", \"mode\": \"batched\", "
          "\"writes_per_txn\": %d, \"committers\": %d, "
          "\"commits_per_s\": %.0f, \"us_per_commit\": %.1f, "
          "\"scaling\": %.2f}",
          writes, committers, batched.commits_per_s, batched.us_per_commit,
          per_key.commits_per_s > 0
              ? batched.commits_per_s / per_key.commits_per_s
              : 0.0);
      std::fflush(stdout);
    }
  }
  const ChurnResult churn = RunWriteSetChurn();
  std::printf(",\n    {\"name\": \"write_set\", \"first_put_ns\": %.1f, "
              "\"update_put_ns\": %.1f, \"probe_ns\": %.1f, "
              "\"allocs_per_reuse_cycle\": %llu}",
              churn.first_put_ns, churn.update_put_ns, churn.probe_ns,
              static_cast<unsigned long long>(churn.allocs_per_cycle));
  std::printf("\n  ],\n");
  // The same benchmark measured at the PR 1 tree (per-record synced WAL
  // appends, eager per-commit GC floors, string/unordered_map write sets)
  // on this 1-core container — the before/after reference for this file.
  std::printf(
      "  \"seed_baseline\": {\n"
      "    \"commit_simulated_commits_per_s\": "
      "{\"1\": 7823, \"2\": 8022, \"4\": 8036, \"8\": 7918, \"16\": 7893},\n"
      "    \"commit_none_commits_per_s\": "
      "{\"1\": 295542, \"2\": 290186, \"4\": 258630, \"8\": 243565, "
      "\"16\": 254965},\n"
      "    \"write_set\": {\"first_put_ns\": 189.7, \"update_put_ns\": 55.2, "
      "\"probe_ns\": 49.0, \"allocs_per_reuse_cycle\": 327}\n"
      "  }\n}\n");
  (void)fsutil::RemoveDirRecursive(dir);
  return 0;
}
