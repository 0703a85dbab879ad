// Chunked (morsel) execution units: chunk/view/pool/builder lifecycle,
// flush-reason accounting (full / boundary / timeout), the ring-backed
// bounded queue, publisher chunk delivery with per-tuple fallback, the
// Subscribe-after-Start() refusal, chunked operator semantics (Where
// selection, Batcher framing) and the chunked
// PartitionBy -> lanes -> MergePartitions pipeline with its stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "stream/stream.h"

namespace streamsi {
namespace {

// --------------------------------------------------------- Chunk basics ---

TEST(ChunkTest, AppendViewAndSlice) {
  Chunk<int> chunk(4);
  chunk.Append(10, 100);
  chunk.Append(11, 101);
  chunk.Append(12, 102);
  EXPECT_EQ(chunk.size(), 3u);
  EXPECT_FALSE(chunk.full());

  const ChunkView<int> view = chunk.view();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 10);
  EXPECT_EQ(view.ts(2), 102u);

  const ChunkView<int> slice = view.Slice(1, 2);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice[0], 11);
  EXPECT_EQ(slice.ts(1), 102u);

  Chunk<int> copy(4);
  copy.AppendView(slice);
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.view()[1], 12);
  EXPECT_EQ(copy.view().ts(0), 101u);
}

TEST(ChunkPoolTest, ReleaseReturnsStorageForReuse) {
  auto pool = ChunkPool<int>::Create();
  const Chunk<int>* raw = nullptr;
  {
    ChunkRef<int> ref = pool->Acquire(8);
    ref->Append(1, 0);
    raw = ref.get();
  }  // ref destroyed -> chunk back in the pool, cleared
  EXPECT_EQ(pool->allocated(), 1u);

  ChunkRef<int> again = pool->Acquire(8);
  EXPECT_EQ(again.get(), raw) << "pool should hand back the same storage";
  EXPECT_TRUE(again->empty()) << "released chunks must come back cleared";
  EXPECT_EQ(pool->reused(), 1u);
  EXPECT_EQ(pool->allocated(), 1u) << "steady state must not allocate";
}

TEST(ChunkBuilderTest, RecordsFlushReasons) {
  auto pool = ChunkPool<int>::Create();
  ChunkBuildStats stats;
  ChunkBuilder<int> builder(pool, /*capacity=*/2, /*linger_micros=*/0,
                            &stats);

  EXPECT_FALSE(builder.Append(1, 0));
  EXPECT_TRUE(builder.Append(2, 1)) << "second append fills a 2-chunk";
  {
    ChunkRef<int> full = builder.Take(ChunkFlushReason::kFull);
    ASSERT_TRUE(full);
    EXPECT_EQ(full->size(), 2u);
  }
  EXPECT_FALSE(builder.Append(3, 2));
  {
    ChunkRef<int> partial = builder.Take(ChunkFlushReason::kBoundary);
    ASSERT_TRUE(partial);
    EXPECT_EQ(partial->size(), 1u);
  }
  EXPECT_FALSE(builder.Take(ChunkFlushReason::kBoundary))
      << "empty builder yields no chunk";

  EXPECT_EQ(stats.chunks.load(), 2u);
  EXPECT_EQ(stats.tuples.load(), 3u);
  EXPECT_EQ(stats.flush_full.load(), 1u);
  EXPECT_EQ(stats.flush_boundary.load(), 1u);
  EXPECT_EQ(stats.flush_timeout.load(), 0u);
}

TEST(ChunkBuilderTest, LingerDeadlineExpiresOnPartialChunks) {
  auto pool = ChunkPool<int>::Create();
  ChunkBuildStats stats;
  ChunkBuilder<int> builder(pool, /*capacity=*/64, /*linger_micros=*/500,
                            &stats);
  EXPECT_FALSE(builder.LingerExpired()) << "empty builder never lingers";
  builder.Append(1, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(builder.LingerExpired());
  (void)builder.Take(ChunkFlushReason::kTimeout);
  EXPECT_EQ(stats.flush_timeout.load(), 1u);
  EXPECT_FALSE(builder.LingerExpired()) << "taking the chunk resets linger";
}

// ----------------------------------------------------- ring BoundedQueue ---

TEST(BoundedQueueRingTest, WrapsAroundManyTimesWithoutLoss) {
  // Capacity 4 ring cycled far past its size: every pushed value pops out
  // in order through repeated head wrap-arounds.
  BoundedQueue<int> queue(4, BackpressurePolicy::kDropNewest);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 100; ++round) {
    while (queue.Push(next_push) == PushResult::kOk) ++next_push;
    while (queue.size() > 0) {  // Pop() blocks on an empty open queue
      const auto v = queue.Pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_GE(next_pop, 400);
}

TEST(BoundedQueueRingTest, DestructionDestroysLiveSlots) {
  // Non-trivial payloads left in the ring at destruction must be released.
  auto tracked = std::make_shared<int>(42);
  std::weak_ptr<int> watch = tracked;
  {
    BoundedQueue<std::shared_ptr<int>> queue(8);
    ASSERT_EQ(queue.Push(std::move(tracked)), PushResult::kOk);
  }
  EXPECT_TRUE(watch.expired()) << "queue destructor leaked a live slot";
}

// ----------------------------------------------------- Publisher chunks ---

TEST(PublisherChunkTest, ChunkSubscribersGetOneCallOthersGetFallback) {
  Publisher<int> publisher;
  std::vector<int> per_tuple;
  std::vector<Timestamp> per_tuple_ts;
  publisher.Subscribe([&](const StreamElement<int>& e) {
    per_tuple.push_back(e.data());
    per_tuple_ts.push_back(e.ts());
  });
  std::size_t chunk_calls = 0;
  std::vector<int> chunked;
  publisher.SubscribeWith([](const StreamElement<int>&) {},
                          [&](const ChunkView<int>& view) {
                            ++chunk_calls;
                            for (std::size_t i = 0; i < view.size(); ++i) {
                              chunked.push_back(view[i]);
                            }
                          });
  EXPECT_TRUE(publisher.has_chunk_subscriber());

  Chunk<int> chunk(3);
  chunk.Append(7, 70);
  chunk.Append(8, 80);
  chunk.Append(9, 90);
  publisher.PublishChunk(chunk.view());

  EXPECT_EQ(chunk_calls, 1u);
  EXPECT_EQ(chunked, (std::vector<int>{7, 8, 9}));
  EXPECT_EQ(per_tuple, (std::vector<int>{7, 8, 9}))
      << "non-chunk subscriber must receive the per-tuple fallback";
  EXPECT_EQ(per_tuple_ts, (std::vector<Timestamp>{70, 80, 90}))
      << "fallback elements must carry the per-tuple timestamps";
}

TEST(PublisherFreezeTest, SubscribeAfterStartIsRefused) {
  Publisher<int> publisher;
  publisher.FreezeSubscriptions();
  EXPECT_DEBUG_DEATH(
      publisher.Subscribe([](const StreamElement<int>&) {}),
      "Subscribe after");
#ifdef NDEBUG
  // Release builds refuse (log + drop) instead of asserting.
  EXPECT_EQ(publisher.subscriber_count(), 0u);
#endif
}

TEST(PublisherFreezeTest, TopologyStartFreezesAllPublishers) {
  Topology topology;
  auto* source = topology.Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{StreamElement<int>(1)});
  auto* collect = topology.Add<Collect<int>>(source);
  topology.Start();
  EXPECT_TRUE(source->subscriptions_frozen());
  topology.Join();
  EXPECT_EQ(collect->size(), 1u);
}

// ------------------------------------------------------- chunked Where ---

TEST(WhereChunkTest, AllPassForwardsAndPartialPassSelects) {
  Publisher<int> input;
  Where<int> where(&input, [](const int& v) { return v % 2 == 0; });
  Collect<int> collect(&where);

  Chunk<int> all_pass(4);
  for (int v : {0, 2, 4, 6}) all_pass.Append(v, 0);
  input.PublishChunk(all_pass.view());  // zero-copy forward path

  Chunk<int> mixed(4);
  for (int v : {1, 2, 3, 4}) mixed.Append(v, 0);
  input.PublishChunk(mixed.view());  // selection-vector path

  Chunk<int> none(2);
  for (int v : {1, 3}) none.Append(v, 0);
  input.PublishChunk(none.view());  // nothing survives, nothing published

  EXPECT_EQ(collect.Elements(), (std::vector<int>{0, 2, 4, 6, 2, 4}));
}

// ------------------------------------------------------ Batcher framing ---

/// Records the full output sequence — data values and punctuations with
/// their timestamps — for byte-identical comparisons across paths.
struct Trace {
  std::vector<std::string> events;
  void Attach(Publisher<int>* input) {
    input->Subscribe([this](const StreamElement<int>& e) {
      if (e.is_data()) {
        events.push_back("d" + std::to_string(e.data()) + "@" +
                         std::to_string(e.ts()));
      } else {
        events.push_back("p" + std::to_string(static_cast<int>(
                                   e.punctuation())) +
                         "@" + std::to_string(e.ts()));
      }
    });
  }
};

TEST(BatcherChunkTest, ChunkedFramingMatchesPerTuple) {
  constexpr std::size_t kBatch = 3;
  // 8 tuples: batches of 3 with a trailing partial, flushed by EOS.
  Publisher<int> per_tuple_in;
  Batcher<int> per_tuple_batcher(&per_tuple_in, kBatch);
  Trace per_tuple;
  per_tuple.Attach(&per_tuple_batcher);
  for (int v = 0; v < 8; ++v) {
    per_tuple_in.Publish(StreamElement<int>(v, static_cast<Timestamp>(v)));
  }
  per_tuple_in.Publish(StreamElement<int>(Punctuation::kEndOfStream, 8));

  Publisher<int> chunked_in;
  Batcher<int> chunked_batcher(&chunked_in, kBatch);
  Trace chunked;
  chunked.Attach(&chunked_batcher);
  // Same tuples in two chunks (5 + 3) whose seams do NOT line up with the
  // batch size — the batcher must slice across them identically.
  Chunk<int> first(5);
  for (int v = 0; v < 5; ++v) first.Append(v, static_cast<Timestamp>(v));
  Chunk<int> second(3);
  for (int v = 5; v < 8; ++v) second.Append(v, static_cast<Timestamp>(v));
  chunked_in.PublishChunk(first.view());
  chunked_in.PublishChunk(second.view());
  chunked_in.Publish(StreamElement<int>(Punctuation::kEndOfStream, 8));

  EXPECT_EQ(chunked.events, per_tuple.events)
      << "BOT/COMMIT framing must be byte-identical across both paths";
}

// ---------------------------------------- chunked partition -> merge ---

TEST(ChunkedPartitionMergeTest, ConservesTuplesAlignsAndReportsStats) {
  constexpr std::size_t kLanes = 4;
  constexpr int kTuples = 4096;
  Topology topology;
  std::vector<StreamElement<int>> elements;
  for (int i = 0; i < kTuples; ++i) elements.emplace_back(i);
  SourceOptions source_options;
  source_options.chunk_capacity = 32;
  auto* source = topology.Add<VectorSource<int>>(std::move(elements),
                                                 source_options);
  PartitionBy<int>::Options options;
  // 1024 tuples/lane and 24-chunks: 42 full flushes + a 16-tuple partial
  // that only the EOS boundary can flush.
  options.chunk_capacity = 24;
  auto* partition = topology.Add<PartitionBy<int>>(
      source, kLanes, [](const int& v) { return static_cast<std::size_t>(v); },
      options);
  auto* merge = topology.Add<MergePartitions<int>>(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    // Batch boundary (every 8) forces boundary flushes inside every lane.
    auto* batcher = topology.Add<Batcher<int>>(partition->lane(i), 8);
    merge->ConnectInput(i, batcher);
  }
  auto* collect = topology.Add<Collect<int>>(merge);
  topology.Start();
  topology.Join();

  std::vector<int> all = collect->TakeElements();
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kTuples))
      << "chunked lanes lost or duplicated tuples";
  for (int i = 0; i < kTuples; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(merge->misaligned_count(), 0u);

  const OperatorStats pstats = partition->stats();
  EXPECT_EQ(pstats.chunk_capacity, 24u);
  EXPECT_GT(pstats.chunks, 0u);
  EXPECT_EQ(pstats.chunk_tuples, static_cast<std::uint64_t>(kTuples));
  EXPECT_GT(pstats.flush_full, 0u) << "full 16-chunks must have flushed";
  EXPECT_GT(pstats.flush_boundary, 0u) << "EOS must flush partial chunks";
  EXPECT_GT(pstats.chunk_fill_ratio(), 0.0);
  EXPECT_LE(pstats.chunk_fill_ratio(), 1.0);

  const OperatorStats sstats = source->stats();
  EXPECT_EQ(sstats.chunk_capacity, 32u);
  EXPECT_EQ(sstats.chunk_tuples, static_cast<std::uint64_t>(kTuples));

  // The topology report surfaces the chunk counters and the merge
  // misalignment counter without touching the operators directly.
  bool saw_partition = false;
  bool saw_merge = false;
  for (const auto& entry : topology.StatsReport()) {
    if (entry.name == "PartitionBy") {
      saw_partition = true;
      EXPECT_GT(entry.stats.flush_full, 0u);
    }
    if (entry.name == "MergePartitions") {
      saw_merge = true;
      EXPECT_EQ(entry.stats.misaligned, 0u);
    }
  }
  EXPECT_TRUE(saw_partition);
  EXPECT_TRUE(saw_merge);
}

TEST(ChunkedPartitionTest, LingerFlushesQuietLanePartialChunk) {
  // Lane 0 receives one tuple and then goes quiet; lane 1 keeps routing.
  // The router's amortized linger sweep must flush lane 0's partial chunk
  // on timeout instead of holding it until EOS.
  Topology topology;
  std::atomic<int> cursor{0};
  auto* source = topology.Add<GeneratorSource<int>>(
      [&]() -> std::optional<StreamElement<int>> {
        const int i = cursor.fetch_add(1);
        if (i == 0) return StreamElement<int>(0);  // routes to lane 0
        if (i == 1) {
          // Let lane 0's partial chunk age past the linger deadline.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (i <= 256) return StreamElement<int>(1);  // routes to lane 1
        return std::nullopt;
      });
  PartitionBy<int>::Options options;
  options.chunk_capacity = 64;
  options.chunk_linger_micros = 500;
  auto* partition = topology.Add<PartitionBy<int>>(
      source, 2, [](const int& v) { return static_cast<std::size_t>(v); },
      options);
  std::array<std::atomic<int>, 2> counts{};
  for (std::size_t i = 0; i < 2; ++i) {
    topology.Add<ForEach<int>>(partition->lane(i), [&counts, i](const int&) {
      counts[i].fetch_add(1);
    });
  }
  topology.Start();
  topology.Join();

  EXPECT_EQ(counts[0].load(), 1);
  EXPECT_EQ(counts[1].load(), 256);
  EXPECT_GE(partition->stats().flush_timeout, 1u)
      << "quiet lane's partial chunk must flush on linger expiry";
}

}  // namespace
}  // namespace streamsi
