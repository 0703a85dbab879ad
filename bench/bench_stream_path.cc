// Stream-path benchmark: end-to-end tuples/s through the partitioned
// parallel execution engine — VectorSource -> PartitionBy(N lanes) ->
// per-lane Batcher (commit-per-batch) -> per-lane ToTable (own
// StreamTxnContext) -> MergePartitions -> sink — against the full
// transactional pipeline with a durable group-commit log.
//
// Four experiments:
//
//  1. stream/simulated — lane count x queue depth under SyncMode::kSimulated
//     (200us per sync, the paper's "fsync dominates" shape): one lane pays
//     one sync per batch serially; N lanes commit concurrently and their
//     durable records ride shared WAL batches (leader/follower group
//     commit, PR 2), so throughput must rise monotonically 1 -> 4 lanes
//     even on one core (sleep-dominated).
//
//  2. stream/none — the pure-CPU full pipeline, per-tuple (chunk=0) and
//     chunked (chunk in {1, 64, 256, 1024}). On this container the floor
//     is the COMMIT PATH, not the stream engine: a bare commit-per-16 txn
//     loop (no streaming at all) tops out around 2.2M tuples/s on one core
//     (write-set append ~53ns/tuple + commit ~320-390ns/key + WAL
//     write-through ~56ns/tuple). Chunking removes the transport cost but
//     cannot remove the commit cost, so the full-pipeline gain saturates
//     near that ceiling.
//
//  3. transport — the same topology with the transactional sink replaced
//     by a pure operator chain (Where -> merge -> ForEach). This isolates
//     the execution engine, the thing this refactor changes: per-tuple vs
//     chunked routing, handoff, batch framing and merge alignment. The
//     chunked rows report scaling vs the per-tuple row at the same lane
//     count; this is where the morsel path shows its real multiplier.
//
//  4. columnar — pre-built chunks delivered straight into a Where ->
//     GroupedAggregate chain on the bench thread: the operators' chunk
//     bodies alone, one row per chunk size.
//
// Lanes batch *after* the partitioner so each lane commits its own batches
// at its own pace. The tuple count is divisible by lanes x batch and
// routing is round-robin (value % lanes), so every lane emits the same
// number of boundaries and MergePartitions stays aligned.
//
// Output: one JSON document on stdout; bench/run_bench.sh archives it as
// BENCH_stream_path.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "core/group_commit_log.h"
#include "core/transaction_manager.h"
#include "core/transactional_table.h"
#include "storage/hash_backend.h"
#include "stream/stream.h"
#include "txn/protocol.h"

namespace streamsi {
namespace {

constexpr std::uint64_t kTuples = 61440;  // divisible by 8 lanes * 16 batch
constexpr std::size_t kBatch = 16;
constexpr std::uint64_t kSimulatedSyncMicros = 200;
constexpr std::uint64_t kKeySpace = 8192;
// Transport runs have no commit work, so they need more tuples for a
// stable clock. Divisible by 8 lanes * 256 batch.
constexpr std::uint64_t kTransportTuples = 61440 * 16;
constexpr std::size_t kTransportBatch = 256;

struct RunResult {
  double tuples_per_s = 0.0;
  double seconds = 0.0;
  std::uint64_t write_errors = 0;
  std::uint64_t stalls = 0;
  double fill_ratio = 0.0;  ///< mean chunk fill across the lane builders
};

std::vector<StreamElement<std::uint64_t>> MakeElements(std::uint64_t count) {
  std::vector<StreamElement<std::uint64_t>> elements;
  elements.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) elements.emplace_back(i);
  return elements;
}

/// Full transactional pipeline. chunk == 0 is the classic per-tuple path.
RunResult RunStreamPath(SyncMode sync_mode, std::size_t lanes,
                        std::size_t queue_capacity, std::size_t chunk,
                        const std::string& dir,
                        std::uint64_t tuples = kTuples) {
  StateContext context;
  const StateId state = context.RegisterState("stream_bench");
  context.RegisterGroup({state});

  StoreOptions store_options;
  VersionedStore store(state, "stream_bench",
                       std::make_unique<HashTableBackend>(), store_options);

  GroupCommitLog log(sync_mode, kSimulatedSyncMicros);
  if (!log.Open(dir + "/stream_commits.log").ok()) std::abort();

  auto protocol = MakeProtocol(ProtocolType::kMvcc, &context);
  TransactionManager manager(
      &context, protocol.get(),
      [&](StateId id) { return id == state ? &store : nullptr; }, &log,
      /*durable_group_log=*/true);
  TransactionalTable<std::uint64_t, std::uint64_t> table(&manager, &store);

  Topology topology;
  SourceOptions source_options;
  source_options.chunk_capacity = chunk;
  auto* source = topology.Add<VectorSource<std::uint64_t>>(
      MakeElements(tuples), source_options);
  PartitionBy<std::uint64_t>::Options options;
  options.queue_capacity = queue_capacity;
  options.policy = BackpressurePolicy::kBlock;  // lossless backpressure
  options.chunk_capacity = chunk;
  auto* partition = topology.Add<PartitionBy<std::uint64_t>>(
      source, lanes,
      [](const std::uint64_t& v) { return static_cast<std::size_t>(v); },
      options);
  auto* merge = topology.Add<MergePartitions<std::uint64_t>>(lanes);
  std::vector<ToTable<std::uint64_t, std::uint64_t, std::uint64_t>*> tails;
  for (std::size_t i = 0; i < lanes; ++i) {
    // Commit-per-batch per lane: each lane runs its own transactions, so N
    // lanes drive N concurrent committers into the group-commit WAL.
    auto* batcher =
        topology.Add<Batcher<std::uint64_t>>(partition->lane(i), kBatch);
    auto ctx = std::make_shared<StreamTxnContext>(&manager);
    auto* to_table =
        topology.Add<ToTable<std::uint64_t, std::uint64_t, std::uint64_t>>(
            batcher, table, ctx,
            [](const std::uint64_t& v) { return v % kKeySpace; },
            [](const std::uint64_t& v) { return v; });
    merge->ConnectInput(i, to_table);
    tails.push_back(to_table);
  }
  std::atomic<std::uint64_t> drained{0};
  topology.Add<ForEach<std::uint64_t>>(merge, [&](const std::uint64_t&) {
    drained.fetch_add(1, std::memory_order_relaxed);
  });

  const auto start = std::chrono::steady_clock::now();
  topology.Start();
  topology.Join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  RunResult result;
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  result.tuples_per_s = static_cast<double>(tuples) / result.seconds;
  for (auto* tail : tails) result.write_errors += tail->error_count();
  const OperatorStats pstats = partition->stats();
  result.stalls = pstats.stalls;
  result.fill_ratio = pstats.chunk_fill_ratio();
  if (drained.load() != tuples) std::abort();  // merge lost/duplicated

  (void)log.Close();
  (void)fsutil::RemoveFile(dir + "/stream_commits.log");
  return result;
}

/// Engine-isolated run: same source -> partition -> per-lane Batcher ->
/// merge -> sink shape, but no transactions, table or log. Measures the
/// stream execution engine itself.
RunResult RunTransport(std::size_t lanes, std::size_t queue_capacity,
                       std::size_t chunk) {
  Topology topology;
  SourceOptions source_options;
  source_options.chunk_capacity = chunk;
  auto* source = topology.Add<VectorSource<std::uint64_t>>(
      MakeElements(kTransportTuples), source_options);
  PartitionBy<std::uint64_t>::Options options;
  options.queue_capacity = queue_capacity;
  options.policy = BackpressurePolicy::kBlock;
  options.chunk_capacity = chunk;
  auto* partition = topology.Add<PartitionBy<std::uint64_t>>(
      source, lanes,
      [](const std::uint64_t& v) { return static_cast<std::size_t>(v); },
      options);
  auto* merge = topology.Add<MergePartitions<std::uint64_t>>(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    // Batch framing still runs (BOT/COMMIT every kTransportBatch tuples)
    // so merge alignment is exercised; the filter is the per-lane "work".
    auto* batcher = topology.Add<Batcher<std::uint64_t>>(
        partition->lane(i), kTransportBatch);
    auto* where = topology.Add<Where<std::uint64_t>>(
        batcher, [](const std::uint64_t& v) { return (v & 1023u) != 1023u; });
    merge->ConnectInput(i, where);
  }
  std::atomic<std::uint64_t> drained{0};
  topology.Add<ForEach<std::uint64_t>>(merge, [&](const std::uint64_t&) {
    drained.fetch_add(1, std::memory_order_relaxed);
  });

  const auto start = std::chrono::steady_clock::now();
  topology.Start();
  topology.Join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  RunResult result;
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  result.tuples_per_s = static_cast<double>(kTransportTuples) / result.seconds;
  const OperatorStats pstats = partition->stats();
  result.stalls = pstats.stalls;
  result.fill_ratio = pstats.chunk_fill_ratio();
  const std::uint64_t expected =
      kTransportTuples - kTransportTuples / 1024;  // Where drops 1-in-1024
  if (drained.load() != expected) std::abort();
  return result;
}

/// Chunk-aware counting sink: absorbs whole chunks without a per-tuple
/// std::function call, so the columnar rows measure the operators, not the
/// sink.
class CountingSink : public OperatorBase {
 public:
  using P = std::pair<std::uint64_t, std::uint64_t>;

  explicit CountingSink(Publisher<P>* input) {
    input->SubscribeWith(
        [this](const StreamElement<P>& e) {
          if (e.is_data()) count_.fetch_add(1, std::memory_order_relaxed);
        },
        [this](const ChunkView<P>& view) {
          count_.fetch_add(view.size(), std::memory_order_relaxed);
        });
  }

  std::uint64_t count() const { return count_.load(); }
  std::string_view name() const override { return "CountingSink"; }

 private:
  std::atomic<std::uint64_t> count_{0};
};

/// Bare publisher head: lets the timed loop hand pre-built chunk views
/// straight to the operator chain, so the columnar sweep measures the
/// operators alone — no source thread, no per-tuple chunker append.
class ChunkFeed : public OperatorBase, public Publisher<std::uint64_t> {
 public:
  std::string_view name() const override { return "ChunkFeed"; }
};

/// Operator-isolated run: pre-chunked input -> Where -> GroupedAggregate ->
/// sink on the bench thread, no partitioner and no transactions. The
/// workload is deliberately mixed-selectivity (exact 1-in-4 drop, scrambled
/// values so group probes are random-access): Where publishes a selection
/// vector over most chunks and the aggregate's pipelined pass runs its
/// selected-input loop against a flat table of 8192 groups.
RunResult RunColumnarKernels(std::size_t chunk) {
  constexpr std::uint64_t kColumnarTuples = kTransportTuples * 4;
  constexpr int kPasses = 4;
  // Knuth multiplicative scramble (odd, = 1 mod 4): bijective, so the drop
  // rate is exactly 1-in-4 and the aggregate keys walk the 8192 groups in
  // large pseudo-random strides instead of sequentially.
  const auto pred = [](const std::uint64_t& v) { return (v & 3u) != 3u; };
  const auto key = [](const std::uint64_t& v) { return v & 8191u; };
  const auto fold = [](std::uint64_t& acc, const std::uint64_t& v) {
    acc += v;
  };

  std::vector<Chunk<std::uint64_t>> chunks;
  chunks.reserve((kColumnarTuples + chunk - 1) / chunk);
  for (std::uint64_t i = 0; i < kColumnarTuples;) {
    chunks.emplace_back(chunk);
    Chunk<std::uint64_t>& c = chunks.back();
    for (; i < kColumnarTuples && !c.full(); ++i) {
      c.Append(i * 2654435761u, static_cast<Timestamp>(i));
    }
  }

  Topology topology;
  auto* feed = topology.Add<ChunkFeed>();
  auto* where = topology.Add<Where<std::uint64_t>>(feed, pred);
  auto* agg = topology.Add<
      GroupedAggregate<std::uint64_t, std::uint64_t, std::uint64_t>>(
      where, key, std::uint64_t{0}, fold);
  auto* sink = topology.Add<CountingSink>(agg);

  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const Chunk<std::uint64_t>& c : chunks) feed->PublishChunk(c.view());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  const std::uint64_t delivered = kColumnarTuples * kPasses;
  RunResult result;
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  result.tuples_per_s = static_cast<double>(delivered) / result.seconds;
  const std::uint64_t expected =
      (kColumnarTuples - kColumnarTuples / 4) * kPasses;  // exact 1-in-4 drop
  if (sink->count() != expected) std::abort();
  return result;
}

void PrintRow(bool* first, const char* name, std::size_t lanes,
              std::size_t depth, std::size_t chunk, const RunResult& r,
              double base) {
  if (!*first) std::printf(",\n");
  *first = false;
  std::printf(
      "    {\"name\": \"%s\", \"partitions\": %zu, \"queue_capacity\": %zu, "
      "\"chunk\": %zu, \"tuples_per_s\": %.0f, \"seconds\": %.3f, "
      "\"write_errors\": %llu, \"stalls\": %llu, \"fill_ratio\": %.2f, "
      "\"scaling\": %.2f}",
      name, lanes, depth, chunk, r.tuples_per_s, r.seconds,
      static_cast<unsigned long long>(r.write_errors),
      static_cast<unsigned long long>(r.stalls), r.fill_ratio,
      base > 0 ? r.tuples_per_s / base : 0.0);
  std::fflush(stdout);
}

}  // namespace
}  // namespace streamsi

int main() {
  using namespace streamsi;

  const std::string dir = "/tmp/streamsi_bench_stream_path";
  (void)fsutil::CreateDirIfMissing(dir);

  const std::size_t lane_counts[] = {1, 2, 4, 8};
  const std::size_t chunk_sizes[] = {1, 64, 256, 1024};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("{\n");
  std::printf("  \"tuples\": %llu,\n",
              static_cast<unsigned long long>(kTuples));
  std::printf("  \"transport_tuples\": %llu,\n",
              static_cast<unsigned long long>(kTransportTuples));
  std::printf("  \"batch_per_lane\": %zu,\n", kBatch);
  std::printf("  \"simulated_sync_micros\": %llu,\n",
              static_cast<unsigned long long>(kSimulatedSyncMicros));
  std::printf("  \"hardware_threads\": %d,\n", hw);
  std::printf("  \"benchmarks\": [\n");
  bool first = true;

  // 1. Durable simulated-sync pipeline: lanes x queue depth, per-tuple.
  for (const std::size_t depth : {std::size_t{64}, std::size_t{1024}}) {
    double base = 0.0;
    for (const std::size_t lanes : lane_counts) {
      const RunResult r =
          RunStreamPath(SyncMode::kSimulated, lanes, depth, /*chunk=*/0, dir);
      if (lanes == 1) base = r.tuples_per_s;
      PrintRow(&first, "stream/simulated", lanes, depth, 0, r, base);
    }
  }

  // 2. Pure-CPU full pipeline: per-tuple lane sweep, then chunk-size sweep
  // at 8 lanes. scaling for the chunk rows is vs the per-tuple 8-lane row.
  // 8x the tuple count of the durable runs: at millions of tuples/s the
  // base workload finishes in tens of milliseconds, too short to measure.
  {
    constexpr std::uint64_t kNoneTuples = kTuples * 8;
    double base = 0.0;
    double base8 = 0.0;
    for (const std::size_t lanes : lane_counts) {
      const RunResult r = RunStreamPath(SyncMode::kNone, lanes, 1024,
                                        /*chunk=*/0, dir, kNoneTuples);
      if (lanes == 1) base = r.tuples_per_s;
      if (lanes == 8) base8 = r.tuples_per_s;
      PrintRow(&first, "stream/none", lanes, 1024, 0, r, base);
    }
    for (const std::size_t chunk : chunk_sizes) {
      const RunResult r =
          RunStreamPath(SyncMode::kNone, 8, 1024, chunk, dir, kNoneTuples);
      PrintRow(&first, "stream/none", 8, 1024, chunk, r, base8);
    }
  }

  // 3. Engine-isolated transport: per-tuple lane sweep, then chunk-size
  // sweep at 8 lanes. scaling for the chunk rows is vs the per-tuple
  // 8-lane row — the morsel path's true multiplier.
  {
    double base = 0.0;
    double base8 = 0.0;
    for (const std::size_t lanes : lane_counts) {
      const RunResult r = RunTransport(lanes, 1024, /*chunk=*/0);
      if (lanes == 1) base = r.tuples_per_s;
      if (lanes == 8) base8 = r.tuples_per_s;
      PrintRow(&first, "transport", lanes, 1024, 0, r, base);
    }
    for (const std::size_t chunk : chunk_sizes) {
      const RunResult r = RunTransport(8, 1024, chunk);
      PrintRow(&first, "transport", 8, 1024, chunk, r, base8);
    }
  }

  // 4. Operator-isolated columnar sweep: one row per chunk size, one lane,
  // no transactions. scaling is vs the chunk-64 row. Best-of-3 per row:
  // the columnar rows measure nanoseconds per tuple, where one scheduler
  // hiccup on a shared machine can swing a single run by 20%.
  {
    double base = 0.0;
    for (const std::size_t chunk : chunk_sizes) {
      if (chunk == 1) continue;  // chunk bodies need real chunks
      RunResult best = RunColumnarKernels(chunk);
      for (int rep = 0; rep < 2; ++rep) {
        const RunResult r = RunColumnarKernels(chunk);
        if (r.tuples_per_s > best.tuples_per_s) best = r;
      }
      if (base == 0.0) base = best.tuples_per_s;
      PrintRow(&first, "columnar/kernel", 1, 0, chunk, best, base);
    }
  }

  std::printf("\n  ],\n");
  std::printf(
      "  \"notes\": \"stream/simulated must scale monotonically 1 -> 4 "
      "partitions: lane commits overlap their simulated sync latency and "
      "share WAL batches (PR 2 group commit) even on one core. "
      "stream/none chunk rows (chunk > 0) use the morsel path end to end; "
      "their ceiling on this 1-core container is the commit path, not the "
      "engine: a bare commit-per-16 loop with no streaming measures ~2.2M "
      "tuples/s (write-set ~53ns/tuple, commit ~320-390ns/key, WAL "
      "write-through ~56ns/tuple), so full-pipeline rows saturate near "
      "that floor. transport rows isolate the execution engine (no "
      "transactions): chunk rows report scaling vs the per-tuple 8-lane "
      "row and show the morsel path's real multiplier. columnar/kernel rows "
      "deliver pre-built chunks straight into Where+GroupedAggregate (no "
      "source thread, no chunker), the operators' only chunk bodies: one "
      "dispatch per chunk, the predicate inlined into a selection-vector "
      "loop, a software-pipelined grouped fold over a flat table. "
      "Mixed-selectivity workload: exact 1-in-4 drop, scrambled keys over "
      "8192 groups; scaling is vs the chunk-64 row.\"\n}\n");
  (void)fsutil::RemoveDirRecursive(dir);
  return 0;
}
