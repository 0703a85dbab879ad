// Scan-path microbenchmark: the ordered-state additions of the secondary-
// index PR, measured at the VersionedStore layer (no protocol, no stream
// layer — same scoping as bench_read_path).
//
// Part 1 — snapshot range scans: ScanRangeCommitted ns/key over range
// lengths 10/100/1k/10k on a 100k-key store, alone and with one concurrent
// writer continuously installing new versions (the scan is latch-free and
// snapshot-stable, so the writer should cost little).
//
// Part 2 — index lookup vs full-scan filter: a base store of 100k rows
// tagged with one of 1k secondary groups, plus an index store of composite
// [group 0x00 primary] -> primary entries (what Database::CreateIndex
// maintains). One lookup = probe the index range [S 0x00, S 0x01) and
// point-read each hit from the base, versus scanning the whole base and
// filtering — the ratio is the reason the index subsystem exists.
//
// Emits JSON on stdout so bench/run_bench.sh archives the numbers as
// BENCH_scan_path.json at the repo root.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/index_key.h"
#include "storage/hash_backend.h"
#include "txn/versioned_store.h"

namespace streamsi {
namespace {

constexpr std::uint64_t kKeys = 100'000;
constexpr std::uint64_t kGroups = 1'000;
constexpr int kValueSize = 64;
constexpr auto kDuration = std::chrono::milliseconds(300);

std::string KeyFor(std::uint64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key-%012llu",
                static_cast<unsigned long long>(k));
  return std::string(buf);
}

std::string GroupFor(std::uint64_t g) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "g-%06llu",
                static_cast<unsigned long long>(g));
  return std::string(buf);
}

/// Runs `body(rng)` repeatedly for kDuration; returns total "work units"
/// (keys visited / lookups done) per wall second as reported by the body.
template <typename Body>
double RunTimed(Body&& body) {
  Xorshift rng(42);
  std::uint64_t units = 0;
  const auto start = std::chrono::steady_clock::now();
  auto now = start;
  while (now - start < kDuration) {
    units += body(rng);
    now = std::chrono::steady_clock::now();
  }
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(now - start)
          .count();
  return static_cast<double>(units) / seconds;
}

}  // namespace
}  // namespace streamsi

int main() {
  using namespace streamsi;

  StoreOptions options;

  // ------------------------------------------------------ part 1: ranges ---
  VersionedStore store(0, "bench_scan", std::make_unique<HashTableBackend>(),
                       options);
  {
    std::string value(kValueSize, 'v');
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      (void)store.BulkLoad(KeyFor(k), value);
    }
  }

  std::printf("{\n  \"unit\": \"ns/key (scans), ns/lookup (index)\",\n");
  std::printf("  \"keys\": %llu,\n  \"groups\": %llu,\n",
              static_cast<unsigned long long>(kKeys),
              static_cast<unsigned long long>(kGroups));
  std::printf("  \"benchmarks\": [\n");
  bool first = true;

  const std::uint64_t range_lengths[] = {10, 100, 1'000, 10'000};
  for (const bool with_writer : {false, true}) {
    std::atomic<bool> stop{false};
    std::thread writer;
    if (with_writer) {
      writer = std::thread([&] {
        Xorshift rng(99);
        std::string value(kValueSize, 'w');
        Timestamp ts = 1'000'000;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string key = KeyFor(rng.Next() % kKeys);
          const Timestamp commit = ++ts;
          (void)store.ApplyCommitted(key, value, false, commit, commit);
        }
      });
    }
    for (const std::uint64_t length : range_lengths) {
      std::string lo, hi;
      const double keys_per_s = RunTimed([&](Xorshift& rng) {
        const std::uint64_t start_key = rng.Next() % (kKeys - length);
        lo = KeyFor(start_key);
        hi = KeyFor(start_key + length);
        std::uint64_t visited = 0;
        (void)store.ScanRangeCommitted(
            kInfinityTs - 1, lo, hi,
            [&](std::string_view, std::string_view) {
              ++visited;
              return true;
            });
        return visited;
      });
      if (!first) std::printf(",\n");
      first = false;
      std::printf(
          "    {\"name\": \"scan/range=%llu%s\", \"ns_per_key\": %.1f, "
          "\"keys_per_s\": %.0f}",
          static_cast<unsigned long long>(length),
          with_writer ? "+writer" : "",
          keys_per_s > 0 ? 1e9 / keys_per_s : 0.0, keys_per_s);
      std::fflush(stdout);
    }
    if (with_writer) {
      stop.store(true, std::memory_order_relaxed);
      writer.join();
    }
  }

  // ------------------------------------------------- part 2: index probe ---
  // Base rows carry their group in the value; the index store holds the
  // composite entries CreateIndex would maintain. ~kKeys/kGroups hits per
  // probe.
  VersionedStore base(1, "bench_rows", std::make_unique<HashTableBackend>(),
                      options);
  VersionedStore index(2, "bench_rows_by_group",
                       std::make_unique<HashTableBackend>(), options);
  {
    std::string composite;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const std::string key = KeyFor(k);
      const std::string group = GroupFor(k % kGroups);
      std::string value = group;
      value.resize(kValueSize, 'v');
      (void)base.BulkLoad(key, value);
      composite.clear();
      AppendIndexKey(&composite, group, key);
      (void)index.BulkLoad(composite, key);
    }
  }

  {
    std::string lo, hi, row;
    const double lookups_per_s = RunTimed([&](Xorshift& rng) {
      IndexExactBounds(GroupFor(rng.Next() % kGroups), &lo, &hi);
      (void)index.ScanRangeCommitted(
          kInfinityTs - 1, lo, hi,
          [&](std::string_view, std::string_view primary) {
            (void)base.ReadCommitted(kInfinityTs - 1, primary, &row);
            return true;
          });
      return std::uint64_t{1};
    });
    std::printf(",\n    {\"name\": \"lookup/index\", \"ns_per_lookup\": "
                "%.0f, \"lookups_per_s\": %.0f}",
                lookups_per_s > 0 ? 1e9 / lookups_per_s : 0.0, lookups_per_s);

    const double scans_per_s = RunTimed([&](Xorshift& rng) {
      const std::string group = GroupFor(rng.Next() % kGroups);
      std::uint64_t hits = 0;
      (void)base.ScanCommitted(
          kInfinityTs - 1, [&](std::string_view, std::string_view value) {
            if (value.size() >= group.size() &&
                std::string_view(value).substr(0, group.size()) == group) {
              ++hits;
            }
            return true;
          });
      (void)hits;
      return std::uint64_t{1};
    });
    std::printf(",\n    {\"name\": \"lookup/full_scan_filter\", "
                "\"ns_per_lookup\": %.0f, \"lookups_per_s\": %.0f}",
                scans_per_s > 0 ? 1e9 / scans_per_s : 0.0, scans_per_s);
    std::printf(",\n    {\"name\": \"lookup/index_speedup\", \"x\": %.1f}",
                scans_per_s > 0 ? lookups_per_s / scans_per_s : 0.0);
  }

  std::printf("\n  ]\n}\n");
  return 0;
}
