#include "storage/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace streamsi {
namespace {

class WalTest : public ::testing::Test {
 protected:
  std::string WalPath() const { return dir_.path() + "/test.wal"; }
  testing::TempDir dir_;
};

TEST_F(WalTest, RoundTrip) {
  {
    WalWriter writer(SyncMode::kNone, 0);
    ASSERT_TRUE(writer.Open(WalPath(), true).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "alpha", false).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kDelete, "bravo", false).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kCheckpoint, "", true).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::vector<std::pair<WalRecordType, std::string>> records;
  WalReader::ReplayStats stats;
  ASSERT_TRUE(WalReader::Replay(
                  WalPath(),
                  [&](WalRecordType type, std::string_view payload) {
                    records.emplace_back(type, std::string(payload));
                    return Status::OK();
                  },
                  &stats)
                  .ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(stats.tail_truncated);
  EXPECT_EQ(records[0].first, WalRecordType::kPut);
  EXPECT_EQ(records[0].second, "alpha");
  EXPECT_EQ(records[1].first, WalRecordType::kDelete);
  EXPECT_EQ(records[1].second, "bravo");
  EXPECT_EQ(records[2].first, WalRecordType::kCheckpoint);
  EXPECT_TRUE(records[2].second.empty());
}

TEST_F(WalTest, EmptyLogReplaysZeroRecords) {
  {
    WalWriter writer(SyncMode::kNone, 0);
    ASSERT_TRUE(writer.Open(WalPath(), true).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  WalReader::ReplayStats stats;
  ASSERT_TRUE(WalReader::Replay(
                  WalPath(),
                  [&](WalRecordType, std::string_view) { return Status::OK(); },
                  &stats)
                  .ok());
  EXPECT_EQ(stats.records, 0u);
  EXPECT_FALSE(stats.tail_truncated);
}

TEST_F(WalTest, TornTailIsTruncatedNotFatal) {
  {
    WalWriter writer(SyncMode::kNone, 0);
    ASSERT_TRUE(writer.Open(WalPath(), true).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "complete", true).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Simulate a crash mid-append: write garbage that looks like a frame
  // header promising more bytes than exist.
  {
    auto file = Env::Default()->NewWritableFile(WalPath(), false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)
                    ->Append(std::string("\x11\x22\x33\x44\xFF\x00\x00\x00x",
                                         9))
                    .ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  std::vector<std::string> payloads;
  WalReader::ReplayStats stats;
  ASSERT_TRUE(WalReader::Replay(
                  WalPath(),
                  [&](WalRecordType, std::string_view payload) {
                    payloads.emplace_back(payload);
                    return Status::OK();
                  },
                  &stats)
                  .ok());
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "complete");
  EXPECT_TRUE(stats.tail_truncated);
}

TEST_F(WalTest, CorruptRecordStopsReplay) {
  {
    WalWriter writer(SyncMode::kNone, 0);
    ASSERT_TRUE(writer.Open(WalPath(), true).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "first", false).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "second", true).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Flip a byte inside the first record's payload.
  std::string contents;
  ASSERT_TRUE(fsutil::ReadFileToString(WalPath(), &contents).ok());
  contents[10] ^= 0x5A;
  ASSERT_TRUE(fsutil::WriteStringToFileAtomic(WalPath(), contents).ok());

  std::vector<std::string> payloads;
  WalReader::ReplayStats stats;
  ASSERT_TRUE(WalReader::Replay(
                  WalPath(),
                  [&](WalRecordType, std::string_view payload) {
                    payloads.emplace_back(payload);
                    return Status::OK();
                  },
                  &stats)
                  .ok());
  EXPECT_TRUE(payloads.empty());  // corruption detected on record 1
  EXPECT_TRUE(stats.tail_truncated);
}

TEST_F(WalTest, SimulatedSyncAddsLatency) {
  WalWriter writer(SyncMode::kSimulated, 2000);  // 2 ms
  ASSERT_TRUE(writer.Open(WalPath(), true).ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(writer.Append(WalRecordType::kPut, "x", true).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            1800);
  ASSERT_TRUE(writer.Close().ok());
}

TEST_F(WalTest, ConcurrentSyncAppendersGroupIntoBatches) {
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 50;
  WalWriter writer(SyncMode::kSimulated, 200);  // sync slow enough to batch
  ASSERT_TRUE(writer.Open(WalPath(), true).ok());

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kRecordsPerThread; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(writer.Append(WalRecordType::kPut, payload, true).ok());
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const std::uint64_t batches = writer.batches_written();
  ASSERT_TRUE(writer.Close().ok());

  // Every record must replay, in a consistent frame stream.
  std::vector<std::string> payloads;
  WalReader::ReplayStats stats;
  ASSERT_TRUE(WalReader::Replay(
                  WalPath(),
                  [&](WalRecordType, std::string_view payload) {
                    payloads.emplace_back(payload);
                    return Status::OK();
                  },
                  &stats)
                  .ok());
  EXPECT_EQ(payloads.size(),
            static_cast<std::size_t>(kThreads) * kRecordsPerThread);
  EXPECT_FALSE(stats.tail_truncated);
  // Group commit must have amortized syncs: strictly fewer batches than
  // records (with 8 threads against a 200us sync this batches heavily).
  EXPECT_LT(batches, static_cast<std::uint64_t>(kThreads) *
                         kRecordsPerThread);
  // Per-thread record order is preserved within the global stream.
  for (int t = 0; t < kThreads; ++t) {
    int expected = 0;
    const std::string prefix = "t" + std::to_string(t) + "-";
    for (const auto& p : payloads) {
      if (p.compare(0, prefix.size(), prefix) == 0) {
        EXPECT_EQ(p, prefix + std::to_string(expected++));
      }
    }
    EXPECT_EQ(expected, kRecordsPerThread);
  }
}

TEST_F(WalTest, TornBatchTailRecoversToPrefixOfWholeRecords) {
  // Build a multi-record batch by appending through one writer, then chop
  // the file mid-record (a crash during the batch write): replay must
  // deliver exactly the whole-record prefix.
  {
    WalWriter writer(SyncMode::kNone, 0);
    ASSERT_TRUE(writer.Open(WalPath(), true).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer
                      .Append(WalRecordType::kPut,
                              "commit-" + std::to_string(i), true)
                      .ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  std::string contents;
  ASSERT_TRUE(fsutil::ReadFileToString(WalPath(), &contents).ok());
  // Cut inside the 8th record's payload.
  const std::size_t frame = 9 + std::string("commit-0").size();
  const std::size_t cut = 7 * frame + frame / 2;
  ASSERT_LT(cut, contents.size());
  ASSERT_TRUE(
      fsutil::WriteStringToFileAtomic(WalPath(), contents.substr(0, cut))
          .ok());

  std::vector<std::string> payloads;
  WalReader::ReplayStats stats;
  ASSERT_TRUE(WalReader::Replay(
                  WalPath(),
                  [&](WalRecordType, std::string_view payload) {
                    payloads.emplace_back(payload);
                    return Status::OK();
                  },
                  &stats)
                  .ok());
  ASSERT_EQ(payloads.size(), 7u);  // whole-record prefix only
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(payloads[static_cast<std::size_t>(i)],
              "commit-" + std::to_string(i));
  }
  EXPECT_TRUE(stats.tail_truncated);
}

TEST_F(WalTest, UnsyncedRidersAreWrittenThroughAfterBatch) {
  // An unsynced append issued while a sync is in flight must still reach
  // the file without waiting for another sync.
  WalWriter writer(SyncMode::kSimulated, 1000);
  ASSERT_TRUE(writer.Open(WalPath(), true).ok());
  std::thread syncer([&] {
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "synced", true).ok());
  });
  // Race an unsynced append against the syncer (either interleaving is
  // valid; both must end up in the file).
  ASSERT_TRUE(writer.Append(WalRecordType::kPut, "rider", false).ok());
  syncer.join();
  ASSERT_TRUE(writer.Close().ok());

  std::vector<std::string> payloads;
  ASSERT_TRUE(WalReader::Replay(
                  WalPath(),
                  [&](WalRecordType, std::string_view payload) {
                    payloads.emplace_back(payload);
                    return Status::OK();
                  },
                  nullptr)
                  .ok());
  ASSERT_EQ(payloads.size(), 2u);
}

TEST_F(WalTest, LargePayloads) {
  const std::string big(1 << 20, 'B');
  {
    WalWriter writer(SyncMode::kNone, 0);
    ASSERT_TRUE(writer.Open(WalPath(), true).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, big, true).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::string got;
  ASSERT_TRUE(WalReader::Replay(
                  WalPath(),
                  [&](WalRecordType, std::string_view payload) {
                    got = std::string(payload);
                    return Status::OK();
                  },
                  nullptr)
                  .ok());
  EXPECT_EQ(got, big);
}

TEST_F(WalTest, RotateToSplitsRecordsAcrossSegments) {
  const std::string second = dir_.path() + "/test.wal.1";
  {
    WalWriter writer(SyncMode::kNone, 0);
    ASSERT_TRUE(writer.Open(WalPath(), true).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "before", true).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "rider", false).ok());
    ASSERT_TRUE(writer.RotateTo(second).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "after", true).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Every record lives in exactly one segment — pre-rotation records
  // (including the buffered unsynced rider) in the old file, later ones in
  // the new file.
  const auto collect = [](const std::string& path) {
    std::vector<std::string> payloads;
    EXPECT_TRUE(WalReader::Replay(
                    path,
                    [&](WalRecordType, std::string_view payload) {
                      payloads.emplace_back(payload);
                      return Status::OK();
                    },
                    nullptr)
                    .ok());
    return payloads;
  };
  EXPECT_EQ(collect(WalPath()),
            (std::vector<std::string>{"before", "rider"}));
  EXPECT_EQ(collect(second), (std::vector<std::string>{"after"}));
}

TEST_F(WalTest, RotateToDrainsConcurrentSyncAppenders) {
  // Sync appenders racing a rotation must come back durable from exactly
  // one of the two segments — never lost, never duplicated.
  const std::string second = dir_.path() + "/test.wal.1";
  WalWriter writer(SyncMode::kSimulated, 200);
  ASSERT_TRUE(writer.Open(WalPath(), true).ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string payload =
            std::to_string(t) + ":" + std::to_string(i);
        ASSERT_TRUE(
            writer.Append(WalRecordType::kPut, payload, true).ok());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(writer.RotateTo(second).ok());
  for (auto& thread : threads) thread.join();
  ASSERT_TRUE(writer.Close().ok());

  std::vector<std::string> seen;
  for (const std::string& path : {WalPath(), second}) {
    ASSERT_TRUE(WalReader::Replay(
                    path,
                    [&](WalRecordType, std::string_view payload) {
                      seen.emplace_back(payload);
                      return Status::OK();
                    },
                    nullptr)
                    .ok());
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
      << "a record was written to both segments";
}

TEST_F(WalTest, RotateToIsNotStarvedBySteadySyncAppenders) {
  // Appenders that keep arriving must not keep a rotation draining: once
  // RotateTo starts, new appends wait for the new segment, so the drain
  // covers only the batches already queued (a few sync latencies).
  WalWriter writer(SyncMode::kSimulated, 200);
  ASSERT_TRUE(writer.Open(WalPath(), true).ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ASSERT_TRUE(writer.Append(WalRecordType::kPut, "x", true).ok());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (int r = 1; r <= 5; ++r) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(writer.RotateTo(WalPath() + "." + std::to_string(r)).ok());
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(250))
        << "rotation " << r << " starved behind the appenders";
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  ASSERT_TRUE(writer.Close().ok());
}

}  // namespace
}  // namespace streamsi
