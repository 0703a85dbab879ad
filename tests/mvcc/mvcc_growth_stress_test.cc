// TSan stress for adaptive version-array growth: optimistic seqlock readers
// (TryGetVisible at snapshots and at the newest timestamp) race an installer
// that repeatedly fills and grows one hot key's slot array (2 -> 64) while
// the background epoch reclaimer frees the superseded arrays and replaced
// value buffers. The
// assertions pin the seqlock contract — a validated read is never torn: the
// returned value always matches the version header it was published with —
// and the EpochManager contract: no reader ever touches freed memory (which
// TSan/ASan would flag, and which tearing would betray).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "mvcc/mvcc_object.h"

namespace streamsi {
namespace {

/// Value installed at commit timestamp `cts`: the cts is recoverable from
/// the payload so readers can cross-check what they got against what the
/// visibility rule promised.
std::string ValueFor(Timestamp cts) {
  return "cts=" + std::to_string(cts) + std::string(24, 'x');
}

Timestamp CtsOf(const std::string& value) {
  return static_cast<Timestamp>(
      std::stoull(value.substr(4, value.find('x') - 4)));
}

TEST(MvccGrowthStressTest, OptimisticReadersVsGrowthAndEpochReclaim) {
  constexpr int kReaders = 3;
  constexpr int kRounds = 60;
  constexpr Timestamp kStride = 10;
  constexpr int kVersionsPerRound = 70;  // > 64: exercises the full ladder

  EpochManager::Global().StartBackgroundReclaimer(
      std::chrono::milliseconds(1));

  for (int round = 0; round < kRounds; ++round) {
    // Fresh tiny object every round so each round replays the whole growth
    // ladder (2 -> 4 -> ... -> 64) under reader fire.
    MvccObject object(2);
    std::atomic<Timestamp> newest{0};  // newest published cts
    std::atomic<bool> stop{false};
    std::atomic<bool> failed{false};
    std::vector<std::string> errors(kReaders);

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        std::string value;
        std::uint64_t salt = static_cast<std::uint64_t>(r) * 2654435761u;
        while (!stop.load(std::memory_order_relaxed)) {
          const Timestamp high = newest.load(std::memory_order_acquire);
          salt = salt * 6364136223846793005ull + 1442695040888963407ull;
          const Timestamp read_ts = high == 0 ? 1 : 1 + salt % (high + 5);
          EpochGuard guard;  // reads may dereference retired arrays/buffers
          const auto result = object.TryGetVisible(read_ts, &value);
          if (result == MvccObject::ReadResult::kHit) {
            // Torn-read check: the visibility rule cts <= read_ts < dts
            // means the payload's cts can never exceed the snapshot.
            const Timestamp cts = CtsOf(value);
            if (cts > read_ts || cts % kStride != 0) {
              errors[static_cast<std::size_t>(r)] =
                  "torn read: cts " + std::to_string(cts) + " at read_ts " +
                  std::to_string(read_ts);
              failed.store(true, std::memory_order_release);
              return;
            }
          }
          if (object.TryGetVisible(kInfinityTs - 1, &value) ==
              MvccObject::ReadResult::kHit &&
              CtsOf(value) % kStride != 0) {
            errors[static_cast<std::size_t>(r)] =
                "torn live read: " + value.substr(0, 16);
            failed.store(true, std::memory_order_release);
            return;
          }
        }
      });
    }

    // Installer (the exclusive-latch owner in the full system): a lagging
    // pin at 0 makes nothing reclaimable, so every fill grows the array.
    for (int i = 1; i <= kVersionsPerRound; ++i) {
      const Timestamp cts = static_cast<Timestamp>(i) * kStride;
      const Status status = object.Install(
          ValueFor(cts), cts, /*oldest_active=*/kInitialTs, /*grow_limit=*/64);
      if (status.IsResourceExhausted()) {
        // Only possible at the 64-slot ceiling with everything pinned:
        // raise the watermark (the "reader finished" moment) and retry.
        ASSERT_EQ(object.capacity(), 64);
        ASSERT_TRUE(object
                        .Install(ValueFor(cts), cts,
                                 /*oldest_active=*/cts - 1, 64)
                        .ok());
      } else {
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
      newest.store(cts, std::memory_order_release);
    }

    stop.store(true, std::memory_order_relaxed);
    for (auto& reader : readers) reader.join();
    ASSERT_FALSE(failed.load()) << errors[0] << errors[1] << errors[2];
    EXPECT_EQ(object.capacity(), 64);
  }

  EpochManager::Global().StopBackgroundReclaimer();
}

}  // namespace
}  // namespace streamsi
