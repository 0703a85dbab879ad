#include "common/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace streamsi {
namespace {

// The global manager is shared across tests (and with any store activity in
// this binary), so assertions track deltas via instrumented deleters rather
// than absolute garbage counts.

TEST(EpochTest, RetiredObjectIsEventuallyFreed) {
  EpochManager& manager = EpochManager::Global();
  std::atomic<int> freed{0};
  struct Probe {
    std::atomic<int>* counter;
    ~Probe() { counter->fetch_add(1); }
  };
  manager.Retire(new Probe{&freed});
  // No reader is active: two reclaim passes advance the epoch twice, which
  // is exactly the retirement horizon.
  manager.DrainForTesting();
  EXPECT_EQ(freed.load(), 1);
}

TEST(EpochTest, BackgroundReclaimerDrainsWithoutManualSweeps) {
  EpochManager& manager = EpochManager::Global();
  manager.StartBackgroundReclaimer(std::chrono::milliseconds(1));
  EXPECT_TRUE(manager.reclaimer_running());

  std::atomic<int> freed{0};
  struct Probe {
    std::atomic<int>* counter;
    ~Probe() { counter->fetch_add(1); }
  };
  constexpr int kProbes = 10;
  for (int i = 0; i < kProbes; ++i) manager.Retire(new Probe{&freed});

  // No TryReclaim/DrainForTesting from this thread: the background cadence
  // alone must free the garbage (two epoch advances => within a few ticks).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (freed.load() < kProbes &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(freed.load(), kProbes);
  manager.StopBackgroundReclaimer();
  EXPECT_FALSE(manager.reclaimer_running());
}

TEST(EpochTest, BackgroundReclaimerRefCountsAcrossOwners) {
  EpochManager& manager = EpochManager::Global();
  manager.StartBackgroundReclaimer(std::chrono::milliseconds(1));
  manager.StartBackgroundReclaimer(std::chrono::milliseconds(1));
  manager.StopBackgroundReclaimer();
  // First owner gone, second still holds a reference.
  EXPECT_TRUE(manager.reclaimer_running());
  manager.StopBackgroundReclaimer();
  EXPECT_FALSE(manager.reclaimer_running());
  // Stop without start is a no-op, and a restart works.
  manager.StopBackgroundReclaimer();
  manager.StartBackgroundReclaimer(std::chrono::milliseconds(1));
  EXPECT_TRUE(manager.reclaimer_running());
  manager.StopBackgroundReclaimer();
}

TEST(EpochTest, ActiveGuardBlocksReclamation) {
  EpochManager& manager = EpochManager::Global();
  manager.DrainForTesting();  // start from a clean slate

  std::atomic<int> freed{0};
  struct Probe {
    std::atomic<int>* counter;
    ~Probe() { counter->fetch_add(1); }
  };

  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EpochGuard guard;
    pinned.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load()) std::this_thread::yield();

  manager.Retire(new Probe{&freed});
  // The reader pinned an epoch <= the retire epoch: the probe must survive
  // any number of reclaim attempts.
  for (int i = 0; i < 10; ++i) manager.TryReclaim();
  EXPECT_EQ(freed.load(), 0);

  release.store(true);
  reader.join();
  manager.DrainForTesting();
  EXPECT_EQ(freed.load(), 1);
}

TEST(EpochTest, GuardsAreReentrant) {
  EpochManager& manager = EpochManager::Global();
  const std::uint64_t before = manager.CurrentEpoch();
  {
    EpochGuard outer;
    {
      EpochGuard inner;  // must not deadlock or double-register
      EpochGuard third;
    }
    // Still pinned: the epoch cannot advance past us by more than one step.
    manager.TryReclaim();
    EXPECT_LE(manager.CurrentEpoch(), before + 1);
  }
  SUCCEED();
}

TEST(EpochTest, ManyThreadsEnterAndExit) {
  constexpr int kThreads = 16;
  constexpr int kIterations = 500;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> entries{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        EpochGuard guard;
        entries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(entries.load(), static_cast<std::uint64_t>(kThreads) * kIterations);
  // All guards closed: reclamation must be able to make progress again.
  EpochManager::Global().TryReclaim();
  SUCCEED();
}

/// A stress probe: never actually freed (it lives in a pool), so a reader
/// can still look at it after its deleter ran and report the violation.
struct PoolProbe {
  std::atomic<bool> freed{false};
};
std::atomic<std::uint64_t> g_pool_probes_freed{0};
void MarkPoolProbeFreed(void* p) {
  static_cast<PoolProbe*>(p)->freed.store(true, std::memory_order_release);
  g_pool_probes_freed.fetch_add(1, std::memory_order_relaxed);
}

TEST(EpochTest, StressRetirersAndPinnedReaders) {
  // Retiring threads replace a published probe and retire the old one;
  // readers pin, load the published probes and check them under the pin.
  // A probe a reader loaded was retired after that reader's guard opened,
  // so it must not be freed before the guard closes. Once the retirers go
  // idle (two of them) or exit (the third), the background reclaimer alone
  // must free everything.
  constexpr int kRetirers = 3;
  constexpr int kReaders = 2;
  constexpr int kPerRetirer = 20000;
  EpochManager& manager = EpochManager::Global();
  manager.StartBackgroundReclaimer(std::chrono::milliseconds(1));
  const std::uint64_t freed_before = g_pool_probes_freed.load();

  std::vector<PoolProbe> pool(kRetirers * (kPerRetirer + 1));
  std::atomic<PoolProbe*> published[kRetirers];
  for (int t = 0; t < kRetirers; ++t) {
    published[t].store(&pool[t * (kPerRetirer + 1)]);
  }
  std::atomic<int> retirers_done{0};
  std::atomic<bool> stop_readers{false};
  std::atomic<bool> release_idle{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> checks{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop_readers.load(std::memory_order_acquire)) {
        EpochGuard guard;
        PoolProbe* seen[kRetirers];
        for (int t = 0; t < kRetirers; ++t) {
          seen[t] = published[t].load(std::memory_order_acquire);
        }
        for (int spin = 0; spin < 64; ++spin) CpuRelax();
        for (int t = 0; t < kRetirers; ++t) {
          if (seen[t] == nullptr) continue;
          checks.fetch_add(1, std::memory_order_relaxed);
          if (seen[t]->freed.load(std::memory_order_acquire)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::vector<std::thread> retirers;
  for (int t = 0; t < kRetirers; ++t) {
    retirers.emplace_back([&, t] {
      const int base = t * (kPerRetirer + 1);
      for (int i = 1; i <= kPerRetirer + 1; ++i) {
        PoolProbe* next = i <= kPerRetirer ? &pool[base + i] : nullptr;
        PoolProbe* old =
            published[t].exchange(next, std::memory_order_acq_rel);
        manager.RetireRaw(old, &MarkPoolProbeFreed);
      }
      retirers_done.fetch_add(1);
      if (t == kRetirers - 1) return;  // exits with garbage outstanding
      while (!release_idle.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  while (retirers_done.load() < kRetirers) std::this_thread::yield();
  stop_readers.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  const std::uint64_t total = pool.size();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (g_pool_probes_freed.load() - freed_before < total &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(g_pool_probes_freed.load() - freed_before, total)
      << "garbage of idle or exited retirers was not freed";
  release_idle.store(true, std::memory_order_release);
  for (auto& retirer : retirers) retirer.join();
  manager.StopBackgroundReclaimer();
  EXPECT_EQ(violations.load(), 0u)
      << "a probe was freed while a guard older than its retire was open";
  EXPECT_GT(checks.load(), 0u);
}

}  // namespace
}  // namespace streamsi
