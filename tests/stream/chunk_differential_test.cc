// Differential property test: the chunked (morsel) stream path must be
// observationally identical to the per-tuple path. The same seeded
// workload runs through VectorSource -> PartitionBy(4 lanes) -> per-lane
// Batcher -> per-lane ToTable -> MergePartitions twice — once with
// chunking off, once with chunk sizes chosen to NOT divide the batch size
// — under all three concurrency protocols. Committed table state, tuple
// conservation and the per-lane batch boundaries (which tuples share a
// transaction) must match exactly.
//
// Also pins the zero-allocation claim: at steady state the chunked
// transport path recycles pooled chunks, so growing the tuple count by 4x
// must not grow the allocation count with it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "core/streamsi.h"
#include "stream/stream.h"

// ------------------------------------------------ allocation accounting ---
// Global operator new/delete replacements counting every allocation in the
// test binary. The aligned forms matter: BoundedQueue's ring storage uses
// align_val_t new, and a missing override would mismatch its delete.

// GCC cannot see that the replacement operator new allocates with malloc,
// so it flags every (inlined) delete in this TU as mismatched. The pairing
// is correct — malloc/aligned_alloc on the new side, free on the delete
// side — which is the standard way to replace the global allocator.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace streamsi {

namespace {

/// Fixed-width event for the operator differential lanes.
struct Event {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

using Tuple = std::pair<std::uint64_t, std::uint64_t>;

constexpr std::size_t kLanes = 4;
constexpr std::uint64_t kTuples = 2040;  // 510 per lane; 510 % 7 != 0
constexpr std::size_t kBatch = 7;        // trailing partial batch per lane
constexpr std::uint64_t kKeySpace = 256;  // 256 % 4 == 0: round-robin lanes

/// Deterministic workload: key i % kKeySpace (round-robin over lanes, so
/// every lane sees the same load and merge alignment is exact), seeded
/// random values with repeated overwrites per key.
std::vector<StreamElement<Tuple>> MakeWorkload() {
  std::mt19937_64 rng(42);
  std::vector<StreamElement<Tuple>> elements;
  elements.reserve(kTuples);
  for (std::uint64_t i = 0; i < kTuples; ++i) {
    elements.emplace_back(Tuple{i % kKeySpace, rng()});
  }
  return elements;
}

struct RunOutput {
  std::map<std::uint64_t, std::uint64_t> committed;  ///< final table state
  /// Per lane: the sequence of transaction batches (tuple keys between
  /// BOT and COMMIT) — the transactional framing the chunk path must not
  /// disturb.
  std::vector<std::vector<std::vector<std::uint64_t>>> lane_batches;
  std::uint64_t drained = 0;
  std::uint64_t write_errors = 0;
  std::uint64_t merge_misaligned = 0;
};

RunOutput RunPipeline(ProtocolType protocol, std::size_t source_chunk,
                      std::size_t lane_chunk) {
  DatabaseOptions options;
  options.protocol = protocol;
  auto db = Database::Open(options).value();
  auto* state = db->CreateState("sink").value();
  TransactionalTable<std::uint64_t, std::uint64_t> table(&db->txn_manager(),
                                                         state);

  RunOutput out;
  out.lane_batches.resize(kLanes);

  Topology topology;
  SourceOptions source_options;
  source_options.chunk_capacity = source_chunk;
  auto* source =
      topology.Add<VectorSource<Tuple>>(MakeWorkload(), source_options);
  PartitionBy<Tuple>::Options poptions;
  poptions.chunk_capacity = lane_chunk;
  auto* partition = topology.Add<PartitionBy<Tuple>>(
      source, kLanes,
      [](const Tuple& t) { return static_cast<std::size_t>(t.first); },
      poptions);
  auto* merge = topology.Add<MergePartitions<Tuple>>(kLanes);
  std::vector<ToTable<Tuple, std::uint64_t, std::uint64_t>*> tails;
  for (std::size_t i = 0; i < kLanes; ++i) {
    auto* batcher =
        topology.Add<Batcher<Tuple>>(partition->lane(i), kBatch);
    // Frame tracer: records which tuples share a transaction batch. It
    // subscribes per-element, so chunk deliveries reach it through the
    // automatic fallback — in the same order ToTable consumes them.
    auto& batches = out.lane_batches[i];
    batcher->Subscribe([&batches](const StreamElement<Tuple>& e) {
      if (e.is_data()) {
        batches.back().push_back(e.data().first);
      } else if (e.punctuation() == Punctuation::kBeginTxn) {
        batches.emplace_back();
      }
    });
    auto ctx = std::make_shared<StreamTxnContext>(&db->txn_manager());
    auto* to_table =
        topology.Add<ToTable<Tuple, std::uint64_t, std::uint64_t>>(
            batcher, table, ctx, [](const Tuple& t) { return t.first; },
            [](const Tuple& t) { return t.second; });
    merge->ConnectInput(i, to_table);
    tails.push_back(to_table);
  }
  std::atomic<std::uint64_t> drained{0};
  topology.Add<ForEach<Tuple>>(merge, [&](const Tuple&) {
    drained.fetch_add(1, std::memory_order_relaxed);
  });
  topology.Start();
  topology.Join();

  out.drained = drained.load();
  for (auto* tail : tails) out.write_errors += tail->error_count();
  out.merge_misaligned = merge->misaligned_count();

  auto txn = db->Begin().value();
  EXPECT_TRUE(table
                  .Scan(txn->txn(),
                        [&](const std::uint64_t& k, const std::uint64_t& v) {
                          out.committed[k] = v;
                          return true;
                        })
                  .ok());
  EXPECT_TRUE(txn->Commit().ok());
  return out;
}

class ChunkDifferentialTest : public ::testing::TestWithParam<ProtocolType> {};

TEST_P(ChunkDifferentialTest, ChunkedPathMatchesPerTuplePath) {
  const RunOutput per_tuple = RunPipeline(GetParam(), 0, 0);
  // Chunk sizes deliberately misaligned with the batch size (7) and with
  // each other, so chunk seams fall mid-batch everywhere.
  const RunOutput chunked = RunPipeline(GetParam(), 32, 13);

  ASSERT_EQ(per_tuple.drained, kTuples);
  ASSERT_EQ(chunked.drained, kTuples) << "chunked path lost tuples";
  EXPECT_EQ(per_tuple.write_errors, 0u);
  EXPECT_EQ(chunked.write_errors, 0u);
  EXPECT_EQ(chunked.merge_misaligned, 0u);

  // Every key's last committed value is identical.
  ASSERT_EQ(per_tuple.committed.size(), kKeySpace);
  EXPECT_EQ(chunked.committed, per_tuple.committed)
      << "chunked path committed different table state";

  // The transactional framing is identical: the same tuples share the
  // same per-lane batches in the same order.
  for (std::size_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(chunked.lane_batches[i], per_tuple.lane_batches[i])
        << "lane " << i << " batch boundaries moved under chunking";
  }

  // Cross-check against the independently computed expectation.
  std::mt19937_64 rng(42);
  std::map<std::uint64_t, std::uint64_t> expected;
  for (std::uint64_t i = 0; i < kTuples; ++i) expected[i % kKeySpace] = rng();
  EXPECT_EQ(per_tuple.committed, expected);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ChunkDifferentialTest,
                         ::testing::Values(ProtocolType::kMvcc,
                                           ProtocolType::kS2pl,
                                           ProtocolType::kBocc),
                         [](const auto& info) {
                           switch (info.param) {
                             case ProtocolType::kMvcc: return "Mvcc";
                             case ProtocolType::kS2pl: return "S2pl";
                             case ProtocolType::kBocc: return "Bocc";
                           }
                           return "Unknown";
                         });

// -------------------------------------------------- operator lanes ---
//
// The same workload runs through Where -> Map -> Batcher -> ToTable ->
// GroupedAggregate two ways: bare per-tuple delivery (the operators'
// element channels) and chunks misaligned with the batch size (their
// chunk bodies: Where's selection views, Map over selected input, the
// pipelined aggregate pass). Committed table state, the exact per-update
// aggregate sequence and the transaction framing must be byte-identical
// across both — under every concurrency protocol.

enum class EngineVariant { kPerTuple, kChunk };

constexpr std::uint64_t kMixedTuples = 1022;  // not a multiple of 7 or 13
constexpr std::uint64_t kMixedKeys = 64;
constexpr std::size_t kMixedChunk = 13;  // misaligned with kBatch == 7

std::vector<StreamElement<Event>> MakeMixedWorkload() {
  std::mt19937_64 rng(7);
  std::vector<StreamElement<Event>> elements;
  elements.reserve(kMixedTuples);
  for (std::uint64_t i = 0; i < kMixedTuples; ++i) {
    elements.emplace_back(Event{i % kMixedKeys, rng() % 100000});
  }
  return elements;
}

struct MixedOutput {
  std::map<std::uint64_t, std::uint64_t> committed;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> updates;
  std::vector<std::vector<std::uint64_t>> batches;
  std::uint64_t write_errors = 0;
};

MixedOutput RunMixedPipeline(ProtocolType protocol, EngineVariant variant) {
  DatabaseOptions options;
  options.protocol = protocol;
  auto db = Database::Open(options).value();
  auto* state = db->CreateState("mixed_sink").value();
  TransactionalTable<std::uint64_t, std::uint64_t> table(&db->txn_manager(),
                                                         state);

  const auto keep = [](const std::uint64_t& value) {
    return (value & 3) != 0;
  };
  const auto transform = [](const Event& e) {
    return Event{e.key, e.value * 2 + 1};
  };
  const auto group_key = [](const Event& e) { return e.key % 8; };
  const auto fold = [](std::uint64_t& acc, const Event& e) {
    acc += e.value;
  };

  Topology topology;
  SourceOptions source_options;
  source_options.chunk_capacity =
      variant == EngineVariant::kPerTuple ? 0 : kMixedChunk;
  auto* source =
      topology.Add<VectorSource<Event>>(MakeMixedWorkload(), source_options);

  auto* filtered = topology.Add<Where<Event>>(
      source, [keep](const Event& e) { return keep(e.value); });
  auto* mapped = topology.Add<Map<Event, Event>>(filtered, transform);
  auto* batcher = topology.Add<Batcher<Event>>(mapped, kBatch);
  MixedOutput out;
  batcher->Subscribe([&out](const StreamElement<Event>& e) {
    if (e.is_data()) {
      out.batches.back().push_back(e.data().key);
    } else if (e.punctuation() == Punctuation::kBeginTxn) {
      out.batches.emplace_back();
    }
  });

  auto ctx = std::make_shared<StreamTxnContext>(&db->txn_manager());
  auto* to_table = topology.Add<ToTable<Event, std::uint64_t, std::uint64_t>>(
      batcher, table, ctx, [](const Event& e) { return e.key; },
      [](const Event& e) { return e.value; });

  auto* agg =
      topology.Add<GroupedAggregate<Event, std::uint64_t, std::uint64_t>>(
          to_table, group_key, std::uint64_t{0}, fold);
  auto* updates =
      topology.Add<Collect<std::pair<std::uint64_t, std::uint64_t>>>(agg);

  topology.Start();
  topology.Join();

  out.updates = updates->Elements();
  out.write_errors = to_table->error_count();

  auto txn = db->Begin().value();
  EXPECT_TRUE(table
                  .Scan(txn->txn(),
                        [&](const std::uint64_t& k, const std::uint64_t& v) {
                          out.committed[k] = v;
                          return true;
                        })
                  .ok());
  EXPECT_TRUE(txn->Commit().ok());
  return out;
}

class MixedEngineDifferentialTest
    : public ::testing::TestWithParam<ProtocolType> {};

TEST_P(MixedEngineDifferentialTest, ChunkAndPerTupleLanesAgree) {
  const MixedOutput per_tuple =
      RunMixedPipeline(GetParam(), EngineVariant::kPerTuple);
  const MixedOutput chunk = RunMixedPipeline(GetParam(), EngineVariant::kChunk);

  EXPECT_EQ(per_tuple.write_errors, 0u);
  EXPECT_EQ(chunk.write_errors, 0u);

  // Independently computed expectation anchors the per-tuple lane.
  std::mt19937_64 rng(7);
  std::map<std::uint64_t, std::uint64_t> expected_committed;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected_updates;
  std::map<std::uint64_t, std::uint64_t> acc;
  for (std::uint64_t i = 0; i < kMixedTuples; ++i) {
    const std::uint64_t key = i % kMixedKeys;
    const std::uint64_t value = rng() % 100000;
    if ((value & 3) == 0) continue;
    const std::uint64_t mapped = value * 2 + 1;
    expected_committed[key] = mapped;
    acc[key % 8] += mapped;
    expected_updates.emplace_back(key % 8, acc[key % 8]);
  }
  EXPECT_EQ(per_tuple.committed, expected_committed);
  EXPECT_EQ(per_tuple.updates, expected_updates);

  // The chunk lane is byte-identical to the per-tuple lane.
  EXPECT_EQ(chunk.committed, per_tuple.committed)
      << "chunk lane committed different table state";
  EXPECT_EQ(chunk.updates, per_tuple.updates)
      << "chunk lane emitted a different aggregate update sequence";
  EXPECT_EQ(chunk.batches, per_tuple.batches)
      << "chunk lane moved transaction batch boundaries";
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, MixedEngineDifferentialTest,
                         ::testing::Values(ProtocolType::kMvcc,
                                           ProtocolType::kS2pl,
                                           ProtocolType::kBocc),
                         [](const auto& info) {
                           switch (info.param) {
                             case ProtocolType::kMvcc: return "Mvcc";
                             case ProtocolType::kS2pl: return "S2pl";
                             case ProtocolType::kBocc: return "Bocc";
                           }
                           return "Unknown";
                         });

// ------------------------------------------------- steady-state allocs ---

TEST(ChunkAllocationTest, SteadyStateAddsNoPerTupleAllocations) {
  // Chunked transport pipeline with a SHALLOW lane queue: the in-flight
  // chunk population is bounded by queue depth, so after warm-up every
  // chunk comes from the pool. Growing the tuple count 4x must therefore
  // not grow the allocation count measurably — allocations are a function
  // of topology shape, not stream length.
  auto run = [](std::uint64_t tuples) {
    Topology topology;
    std::vector<StreamElement<std::uint64_t>> elements;
    elements.reserve(tuples);
    for (std::uint64_t i = 0; i < tuples; ++i) elements.emplace_back(i);
    SourceOptions source_options;
    source_options.chunk_capacity = 64;
    auto* source = topology.Add<VectorSource<std::uint64_t>>(
        std::move(elements), source_options);
    PartitionBy<std::uint64_t>::Options options;
    options.chunk_capacity = 64;
    options.queue_capacity = 8;  // bounds the pool's working set
    options.policy = BackpressurePolicy::kBlock;
    auto* partition = topology.Add<PartitionBy<std::uint64_t>>(
        source, kLanes,
        [](const std::uint64_t& v) { return static_cast<std::size_t>(v); },
        options);
    auto* merge = topology.Add<MergePartitions<std::uint64_t>>(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
      merge->ConnectInput(i, partition->lane(i));
    }
    std::atomic<std::uint64_t> drained{0};
    topology.Add<ForEach<std::uint64_t>>(merge, [&](const std::uint64_t&) {
      drained.fetch_add(1, std::memory_order_relaxed);
    });

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    topology.Start();
    topology.Join();
    const std::uint64_t during =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(drained.load(), tuples);
    return during;
  };

  const std::uint64_t small_tuples = 8192;
  const std::uint64_t large_tuples = 4 * small_tuples;
  const std::uint64_t small_allocs = run(small_tuples);
  const std::uint64_t large_allocs = run(large_tuples);

  // 24576 extra tuples; allow a whisker of slack for thread/cv noise, far
  // below even 0.01 allocations per tuple.
  const std::uint64_t extra_tuples = large_tuples - small_tuples;
  EXPECT_LE(large_allocs, small_allocs + extra_tuples / 100)
      << "chunked path allocates per tuple at steady state (small run: "
      << small_allocs << " allocs, large run: " << large_allocs << ")";
}

TEST(ChunkAllocationTest, OperatorSteadyStateAddsNoPerTupleAllocations) {
  // Operator chunk bodies: Where reuses its selection vector and
  // GroupedAggregate its flat accumulator table and output chunk — after
  // warm-up nothing on the per-chunk path allocates, so 4x the tuples must
  // not grow the allocation count.
  auto run = [](std::uint64_t tuples) {
    Topology topology;
    std::vector<StreamElement<Event>> elements;
    elements.reserve(tuples);
    for (std::uint64_t i = 0; i < tuples; ++i) {
      elements.emplace_back(Event{i % 32, i});
    }
    SourceOptions source_options;
    source_options.chunk_capacity = 64;
    auto* source = topology.Add<VectorSource<Event>>(std::move(elements),
                                                     source_options);
    auto* where = topology.Add<Where<Event>>(
        source, [](const Event& e) { return (e.value & 3) != 0; });
    auto* agg =
        topology.Add<GroupedAggregate<Event, std::uint64_t, std::uint64_t>>(
            where, [](const Event& e) { return e.key; }, std::uint64_t{0},
            [](std::uint64_t& acc, const Event& e) { acc += e.value; });
    std::atomic<std::uint64_t> drained{0};
    topology.Add<ForEach<std::pair<std::uint64_t, std::uint64_t>>>(
        agg, [&](const std::pair<std::uint64_t, std::uint64_t>&) {
          drained.fetch_add(1, std::memory_order_relaxed);
        });

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    topology.Start();
    topology.Join();
    const std::uint64_t during =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(drained.load(), tuples - tuples / 4)
        << "value & 3 drops exactly one tuple in four";
    return during;
  };

  const std::uint64_t small_tuples = 8192;
  const std::uint64_t large_tuples = 4 * small_tuples;
  const std::uint64_t small_allocs = run(small_tuples);
  const std::uint64_t large_allocs = run(large_tuples);

  const std::uint64_t extra_tuples = large_tuples - small_tuples;
  EXPECT_LE(large_allocs, small_allocs + extra_tuples / 100)
      << "operator path allocates per tuple at steady state (small run: "
      << small_allocs << " allocs, large run: " << large_allocs << ")";
}

}  // namespace
}  // namespace streamsi
