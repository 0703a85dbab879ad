// Crash-torture property test: the whole engine runs against FaultEnv
// while committers, a checkpointer and LSM flushes race; power is cut at a
// seeded-random write/sync-op budget; the database then reopens from the
// SIMULATED surviving bytes (synced prefixes + a random torn tail) and the
// verifier checks the durability contract:
//
//   1. Every acked commit is visible after recovery (zero acked losses).
//   2. Both states of the group carry the same value for every key —
//      group commits are atomic across the cut.
//   3. Visible values are exactly ones some transaction wrote (monotone
//      per-thread counters bounded by the last ATTEMPT) — torn or invented
//      data never resurrects. (A durable-but-unacked commit may legally
//      surface: the client simply never learned its fate.)
//   4. State ids are stable across the reopen and the recovered clock
//      dominates every group watermark.
//   5. State "a" carries a secondary index ("a_idx", keyed by the row's
//      value): every base row has exactly its index entry and every index
//      entry has its base row — base and index publish in one §4.3
//      commit, so no power cut may separate them.
//
// Every failure message carries the seed + the fault schedule for
// one-command reproduction:
//   STREAMSI_TORTURE_SEEDS=100 ./build/property_crash_torture_property_test
//
// The negative control proves the harness has teeth: with the deliberately
// inverted checkpoint order (prune BEFORE the durable cut record — the
// exact bug the protocol ordering prevents) a power cut inside the window
// must make the verifier report lost acked commits.

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_env.h"
#include "common/random.h"
#include "core/index_key.h"
#include "core/streamsi.h"

namespace streamsi {
namespace {

constexpr int kCommitters = 3;
constexpr int kMaxCommitsPerThread = 4000;  // safety cap, not the target

DatabaseOptions TortureOptions(Env* env, bool prune_before_cut) {
  DatabaseOptions options;
  options.protocol = ProtocolType::kMvcc;
  options.backend = BackendType::kLsm;
  options.backend_options.sync_mode = SyncMode::kFsync;
  options.backend_options.env = env;
  // Tiny memtables: the workload seals + background-flushes constantly, so
  // the cut also lands inside SSTable writes and manifest publications.
  options.backend_options.memtable_bytes = 2 * 1024;
  options.backend_options.l0_compaction_trigger = 2;
  // Power cuts do not heal on retry; keep the worker's backoff short.
  options.backend_options.flush_retry_attempts = 1;
  options.backend_options.flush_retry_backoff_ms = 1;
  options.env = env;
  options.base_dir = "/db";
  options.test_hooks.checkpoint_prune_before_cut = prune_before_cut;
  return options;
}

/// The index over state "a": secondary key = the row's value.
TransactionManager::IndexKeyExtractor ValueExtractor() {
  return [](std::string_view, std::string_view value) {
    return std::string(value);
  };
}

/// What the run observed before the lights went out.
struct TortureRun {
  // Per committer thread: last value whose commit returned OK, and the last
  // value attempted at all (-1 = none).
  std::vector<int> last_acked = std::vector<int>(kCommitters, -1);
  std::vector<int> last_attempted = std::vector<int>(kCommitters, -1);
  StateId a = kInvalidStateId;
  StateId b = kInvalidStateId;
  GroupId g = kInvalidGroupId;
};

/// Declares the schema: states a and b in one group, plus the index over a.
void DeclareSchema(Database& db, TortureRun* run) {
  run->a = (*db.CreateState("a"))->id();
  run->b = (*db.CreateState("b"))->id();
  run->g = db.CreateGroup({run->a, run->b});
  EXPECT_TRUE(db.CreateIndex("a", "a_idx", ValueExtractor()).ok());
  EXPECT_TRUE(db.Recover().ok());
}

/// Drives committers + checkpoints against `env` until a power cut armed
/// `cut_after_ops` ops after setup fires (or the safety cap is reached).
TortureRun RunUntilPowerCut(FaultEnv* env, bool prune_before_cut,
                            std::uint64_t cut_after_ops) {
  TortureRun run;
  auto db = Database::Open(TortureOptions(env, prune_before_cut));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return run;
  DeclareSchema(**db, &run);
  // Armed AFTER setup: the cut lands inside the commit/checkpoint
  // workload, not inside the schema declarations.
  env->CutPowerAfterOps(cut_after_ops);

  std::atomic<bool> stop{false};
  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)(*db)->Checkpoint();  // failures expected once power dies
    }
  });
  std::vector<std::thread> committers;
  for (int w = 0; w < kCommitters; ++w) {
    committers.emplace_back([&, w] {
      const std::string key = "w" + std::to_string(w);
      for (int i = 0; i < kMaxCommitsPerThread; ++i) {
        if (env->PowerIsCut()) break;
        run.last_attempted[static_cast<std::size_t>(w)] = i;
        const std::string value = std::to_string(i);
        auto t = (*db)->Begin();
        if (!t.ok()) continue;
        if (!(*db)->txn_manager().Write((*t)->txn(), run.a, key, value).ok()) {
          continue;  // handle destructor aborts the txn
        }
        if (!(*db)->txn_manager().Write((*t)->txn(), run.b, key, value).ok()) {
          continue;
        }
        if ((*t)->Commit().ok()) {
          run.last_acked[static_cast<std::size_t>(w)] = i;
        }
      }
    });
  }
  for (auto& thread : committers) thread.join();
  stop.store(true, std::memory_order_release);
  checkpointer.join();
  // The Database destructor is the "crash": no clean shutdown protocol, and
  // its shutdown IO fails against the cut power anyway.
  return run;
}

/// Reads `key` from `state` in a fresh snapshot; "" = not found.
std::string ReadOne(Database& db, StateId state, const std::string& key) {
  auto t = db.Begin();
  EXPECT_TRUE(t.ok());
  std::string value;
  const Status status = db.txn_manager().Read((*t)->txn(), state, key, &value);
  EXPECT_TRUE((*t)->Commit().ok());
  if (status.IsNotFound()) return "";
  EXPECT_TRUE(status.ok()) << status.ToString();
  return value;
}

/// Base/index agreement at one snapshot: each base row of "a" has exactly
/// its index entry, and each index entry points at a base row whose value
/// extracts to the entry's secondary key.
void VerifyIndex(Database& db, const std::string& repro) {
  // Re-bind the extractor: a reopened index comes back pending.
  auto index = db.CreateIndex("a", "a_idx", ValueExtractor());
  ASSERT_TRUE(index.ok()) << index.status().ToString() << "\n" << repro;
  const StateId a = db.FindState("a")->id();
  auto t = db.Begin();
  ASSERT_TRUE(t.ok()) << repro;
  std::map<std::string, std::string> base;
  std::map<std::string, std::string> entries;
  ASSERT_TRUE((*t)->Scan(a, [&](std::string_view k, std::string_view v) {
                    base.emplace(k, v);
                    return true;
                  }).ok())
      << repro;
  ASSERT_TRUE((*t)->Scan((*index)->id(),
                         [&](std::string_view k, std::string_view v) {
                           entries.emplace(k, v);
                           return true;
                         })
                  .ok())
      << repro;
  EXPECT_TRUE((*t)->Commit().ok()) << repro;
  for (const auto& [key, value] : base) {
    const std::string composite = MakeIndexKey(value, key);
    const auto it = entries.find(composite);
    EXPECT_TRUE(it != entries.end() && it->second == key)
        << "base row " << key << "=" << value << " has no index entry\n"
        << repro;
  }
  for (const auto& [composite, primary] : entries) {
    std::string_view secondary;
    std::string_view key;
    ASSERT_TRUE(SplitIndexKey(composite, &secondary, &key)) << repro;
    EXPECT_EQ(key, primary) << repro;
    const auto it = base.find(std::string(key));
    EXPECT_TRUE(it != base.end() && it->second == secondary)
        << "index entry " << secondary << "->" << key
        << " has no matching base row\n"
        << repro;
  }
  EXPECT_EQ(base.size(), entries.size()) << repro;
}

/// Reopens from the surviving state and checks the durability contract.
/// `expect_detectable_loss`: the negative control flips this to assert the
/// verifier DOES flag lost acked commits.
void VerifySurvivors(FaultEnv* env, const TortureRun& run,
                     const std::string& repro, bool* loss_detected) {
  *loss_detected = false;
  auto db = Database::Open(TortureOptions(env, /*prune_before_cut=*/false));
  ASSERT_TRUE(db.ok()) << "reopen failed: " << db.status().ToString() << "\n"
                       << repro;
  // State ids are stable across the catalog reopen.
  VersionedStore* store_a = (*db)->FindState("a");
  VersionedStore* store_b = (*db)->FindState("b");
  ASSERT_NE(store_a, nullptr) << repro;
  ASSERT_NE(store_b, nullptr) << repro;
  EXPECT_EQ(store_a->id(), run.a) << repro;
  EXPECT_EQ(store_b->id(), run.b) << repro;

  for (int w = 0; w < kCommitters; ++w) {
    const std::string key = "w" + std::to_string(w);
    const std::string va = ReadOne(**db, run.a, key);
    const std::string vb = ReadOne(**db, run.b, key);
    // Group atomicity across the cut.
    EXPECT_EQ(va, vb) << "states diverged for " << key << "\n" << repro;
    const int acked = run.last_acked[static_cast<std::size_t>(w)];
    const int attempted = run.last_attempted[static_cast<std::size_t>(w)];
    int visible = -1;
    if (!va.empty()) {
      visible = std::atoi(va.c_str());
      // No invented/torn data: the value is one some txn actually wrote.
      EXPECT_GE(visible, 0) << repro;
      EXPECT_LE(visible, attempted)
          << "resurrected value " << va << " was never written to " << key
          << "\n" << repro;
    }
    if (visible < acked) {
      // Acked commit lost. The negative control EXPECTS this; the real
      // protocol must never produce it.
      *loss_detected = true;
      ADD_FAILURE() << "acked commit lost: " << key << " acked=" << acked
                    << " visible=" << visible << "\n"
                    << repro;
    }
  }
  // The recovered clock dominates every group watermark (timestamps the
  // recovered groups hand out stay monotone).
  EXPECT_GE((*db)->context().clock().Now(), (*db)->context().LastCts(run.g))
      << repro;
  VerifyIndex(**db, repro);
}

class CrashTortureTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashTortureTest, AckedCommitsSurviveRandomPowerCut) {
  const std::uint64_t seed = GetParam();
  FaultEnv env(seed);
  // Somewhere inside the workload's IO stream; Xorshift(seed) makes the
  // budget (and every torn-byte choice inside FaultEnv) reproducible.
  Xorshift rng(seed * 2654435761u + 1);
  const TortureRun run = RunUntilPowerCut(&env, /*prune_before_cut=*/false,
                                          30 + rng.Uniform(2500));
  env.CrashAndRecoverFs(FaultEnv::CrashMode::kKeepRandomPrefix);

  const std::string repro =
      "seed=" + std::to_string(seed) +
      " (repro: STREAMSI_TORTURE_SEEDS with this seed) " +
      env.DescribeSchedule();
  bool loss_detected = false;
  VerifySurvivors(&env, run, repro, &loss_detected);
  EXPECT_FALSE(loss_detected) << repro;
}

std::uint64_t TortureSeedCount() {
  const char* override = std::getenv("STREAMSI_TORTURE_SEEDS");
  if (override != nullptr) {
    const std::uint64_t n = std::strtoull(override, nullptr, 10);
    if (n > 0) return n;
  }
  return 10;  // default tier-1 budget; ci.sh sweeps more
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashTortureTest,
                         ::testing::Range<std::uint64_t>(
                             1, 1 + TortureSeedCount()));

// ---------------------------------------------------------------------------
// Negative control: the deliberately inverted checkpoint order must make
// the verifier above report lost acked commits — proving the harness
// detects the class of bug it exists for. Deterministic window: after a
// completed checkpoint (memtables flushed, nothing left to write), the next
// checkpoint's ONLY IO is the cut record itself, so arming a 1-op power
// cut lands exactly between the (misordered) prune and the record.
// ---------------------------------------------------------------------------

class CheckpointOrderNegativeControl : public ::testing::Test {};

TEST_F(CheckpointOrderNegativeControl, PruneBeforeCutLosesAckedCommits) {
  for (const bool broken : {false, true}) {
    FaultEnv env(/*seed=*/1234);
    TortureRun run;
    {
      auto db = Database::Open(TortureOptions(&env, broken));
      ASSERT_TRUE(db.ok());
      DeclareSchema(**db, &run);
      for (int i = 0; i < 20; ++i) {
        const std::string value = std::to_string(i);
        auto t = (*db)->Begin();
        ASSERT_TRUE(t.ok());
        ASSERT_TRUE(
            (*db)->txn_manager().Write((*t)->txn(), run.a, "w0", value).ok());
        ASSERT_TRUE(
            (*db)->txn_manager().Write((*t)->txn(), run.b, "w0", value).ok());
        ASSERT_TRUE((*t)->Commit().ok());
        run.last_acked[0] = run.last_attempted[0] = i;
      }
      for (int w = 1; w < kCommitters; ++w) {
        run.last_acked[static_cast<std::size_t>(w)] = -1;
        run.last_attempted[static_cast<std::size_t>(w)] = -1;
      }
      // Checkpoint #1 (correct or broken order — irrelevant without a
      // crash): everything flushed, log pruned to one segment whose cut
      // record now guards every acked commit.
      ASSERT_TRUE((*db)->Checkpoint().ok());
      // Checkpoint #2: memtables are empty and the log is quiescent, so the
      // first write/sync op it performs is the new cut record. Cut power on
      // exactly that op. Broken order: the old segment (with the only
      // durable cut) is pruned FIRST, then the record tears — every acked
      // commit's watermark is gone. Correct order: the record tears before
      // anything is deleted, the old chain stays authoritative.
      env.CutPowerAfterOps(1);
      EXPECT_FALSE((*db)->Checkpoint().ok());
      EXPECT_TRUE(env.PowerIsCut());
    }
    env.CrashAndRecoverFs();

    const std::string repro = std::string("negative-control broken=") +
                              (broken ? "true" : "false") + " " +
                              env.DescribeSchedule();
    bool loss_detected = false;
    if (broken) {
      // The verifier must CATCH the loss — gtest failures are expected
      // output of the inner check here, not of this test.
      ::testing::TestPartResultArray failures;
      {
        ::testing::ScopedFakeTestPartResultReporter reporter(
            ::testing::ScopedFakeTestPartResultReporter::
                INTERCEPT_ONLY_CURRENT_THREAD,
            &failures);
        VerifySurvivors(&env, run, repro, &loss_detected);
      }
      EXPECT_TRUE(loss_detected)
          << "harness failed to detect the deliberately broken "
             "prune-before-cut ordering\n"
          << repro;
    } else {
      VerifySurvivors(&env, run, repro, &loss_detected);
      EXPECT_FALSE(loss_detected) << repro;
    }
  }
}

}  // namespace
}  // namespace streamsi
