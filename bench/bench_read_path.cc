// Read-path microbenchmark (§5.2: readers "mostly only access memory").
//
// Measures VersionedStore snapshot reads directly — no protocol, no stream
// layer — across three key distributions:
//   hot      single-key hot read (the worst case for latch contention)
//   uniform  uniform random over the key space
//   zipf     Zipfian (theta=0.99) skewed access
// each at 1..16 reader threads, plus a variant with one concurrent writer
// continuously installing new versions. Emits JSON on stdout so
// bench/run_bench.sh can archive the numbers as BENCH_read_path.json:
// ns/op per configuration and the scaling efficiency relative to the
// single-threaded run of the same scenario.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "storage/hash_backend.h"
#include "txn/versioned_store.h"

namespace streamsi {
namespace {

constexpr std::uint64_t kKeys = 100'000;
constexpr int kValueSize = 64;
constexpr auto kDuration = std::chrono::milliseconds(300);

std::string KeyFor(std::uint64_t k) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key-%012llu",
                static_cast<unsigned long long>(k));
  return std::string(buf);
}

struct RunResult {
  double ns_per_op = 0.0;
  double ops_per_s = 0.0;
};

enum class Dist { kHot, kUniform, kZipf };

RunResult RunReaders(VersionedStore& store, Dist dist, int readers,
                     bool with_writer) {
  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> total_ops{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers) + 1);

  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      // Pre-build the key strings the thread will probe with so key
      // formatting is not part of the measured loop.
      std::vector<std::string> keys;
      if (dist == Dist::kHot) {
        keys.push_back(KeyFor(kKeys / 2));
      } else {
        keys.reserve(4096);
        Xorshift rng(static_cast<std::uint64_t>(r) * 2654435761u + 1);
        ZipfianGenerator zipf(kKeys, 0.99,
                              static_cast<std::uint64_t>(r) + 17);
        for (int i = 0; i < 4096; ++i) {
          const std::uint64_t k = dist == Dist::kUniform
                                      ? rng.Next() % kKeys
                                      : zipf.ScrambledNext();
          keys.push_back(KeyFor(k));
        }
      }
      std::string value;
      value.reserve(256);
      std::uint64_t ops = 0;
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& key = keys[ops & (keys.size() - 1)];
        (void)store.ReadCommitted(kInfinityTs - 1, key, &value);
        ++ops;
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  if (with_writer) {
    threads.emplace_back([&] {
      Xorshift rng(99);
      std::string value(kValueSize, 'w');
      Timestamp ts = 1'000'000;
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = KeyFor(rng.Next() % kKeys);
        const Timestamp commit = ++ts;
        (void)store.ApplyCommitted(key, value, false, commit, commit);
      }
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
  const double ops = static_cast<double>(total_ops.load());
  RunResult result;
  result.ops_per_s = ops / seconds;
  result.ns_per_op = ops > 0 ? seconds * 1e9 * readers / ops : 0.0;
  return result;
}

const char* DistName(Dist dist) {
  switch (dist) {
    case Dist::kHot:
      return "hot";
    case Dist::kUniform:
      return "uniform";
    case Dist::kZipf:
      return "zipf";
  }
  return "?";
}

}  // namespace
}  // namespace streamsi

int main() {
  using namespace streamsi;

  StoreOptions options;
  VersionedStore store(0, "bench", std::make_unique<HashTableBackend>(),
                       options);
  {
    std::string value(kValueSize, 'v');
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      (void)store.BulkLoad(KeyFor(k), value);
    }
  }

  const int thread_counts[] = {1, 2, 4, 8, 16};
  const Dist dists[] = {Dist::kHot, Dist::kUniform, Dist::kZipf};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("{\n  \"unit\": \"ns/op\",\n");
  std::printf("  \"keys\": %llu,\n", static_cast<unsigned long long>(kKeys));
  std::printf("  \"hardware_threads\": %d,\n", hw);
  std::printf("  \"benchmarks\": [\n");
  bool first = true;
  for (const bool with_writer : {false, true}) {
    for (const Dist dist : dists) {
      double base_ops = 0.0;
      for (const int readers : thread_counts) {
        const RunResult r = RunReaders(store, dist, readers, with_writer);
        if (readers == 1) base_ops = r.ops_per_s;
        const double efficiency =
            base_ops > 0 ? r.ops_per_s / (base_ops * readers) : 0.0;
        if (!first) std::printf(",\n");
        first = false;
        std::printf(
            "    {\"name\": \"read/%s%s\", \"readers\": %d, "
            "\"ns_per_op\": %.1f, \"ops_per_s\": %.0f, "
            "\"scaling_efficiency\": %.3f}",
            DistName(dist), with_writer ? "+writer" : "", readers,
            r.ns_per_op, r.ops_per_s, efficiency);
        std::fflush(stdout);
      }
    }
  }
  std::printf("\n  ]\n}\n");
  return 0;
}
