// Partitioned parallel stream execution: bounded queues (backpressure
// policies, close-safe push), PartitionBy routing + punctuation broadcast,
// MergePartitions boundary alignment, topology lifecycle/stats, and the
// end-to-end tuple-conservation/window property across
// PartitionBy -> per-lane windows -> MergePartitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "stream/stream.h"

namespace streamsi {
namespace {

template <typename T>
std::vector<StreamElement<T>> DataElements(std::vector<T> values) {
  std::vector<StreamElement<T>> out;
  Timestamp ts = 0;
  for (auto& v : values) out.emplace_back(std::move(v), ts++);
  return out;
}

// --------------------------------------------------------- BoundedQueue ---

TEST(BoundedQueueTest, PushAfterCloseIsRejected) {
  BoundedQueue<int> queue;
  EXPECT_EQ(queue.Push(1), PushResult::kOk);
  EXPECT_EQ(queue.Push(2), PushResult::kOk);
  queue.Close();
  // The shutdown race of the seed: a producer publishing concurrently with
  // Close() used to enqueue into a queue whose consumer already observed
  // drain-and-exit. Now the push is rejected deterministically.
  EXPECT_EQ(queue.Push(3), PushResult::kClosed);
  // Pre-close elements still drain, in FIFO order.
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_FALSE(queue.Pop().has_value());
  EXPECT_EQ(queue.stats().pushed, 2u);
  EXPECT_EQ(queue.stats().dropped, 1u);
}

TEST(BoundedQueueTest, DropNewestPolicyRejectsWhenFull) {
  BoundedQueue<int> queue(2, BackpressurePolicy::kDropNewest);
  EXPECT_EQ(queue.Push(1), PushResult::kOk);
  EXPECT_EQ(queue.Push(2), PushResult::kOk);
  EXPECT_EQ(queue.Push(3), PushResult::kDropped);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Push(4), PushResult::kOk);  // room again
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed, 3u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.high_water, 2u);
}

TEST(BoundedQueueTest, BlockingProducerResumesAfterPop) {
  BoundedQueue<int> queue(1, BackpressurePolicy::kBlock);
  ASSERT_EQ(queue.Push(1), PushResult::kOk);
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(queue.Push(2), PushResult::kOk);
    second_pushed.store(true, std::memory_order_release);
  });
  // The queue is full: the producer must be stalled, not dropping.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load(std::memory_order_acquire));
  EXPECT_EQ(queue.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load(std::memory_order_acquire));
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_GE(queue.stats().stalls, 1u);
  EXPECT_EQ(queue.stats().dropped, 0u);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> queue(1, BackpressurePolicy::kBlock);
  ASSERT_EQ(queue.Push(1), PushResult::kOk);
  PushResult blocked_result = PushResult::kOk;
  std::thread producer([&] { blocked_result = queue.Push(2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  producer.join();
  EXPECT_EQ(blocked_result, PushResult::kClosed)
      << "a producer stalled on a full queue must not enqueue after close";
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BoundedQueueTest, PushWaitIsLosslessUnderDropNewest) {
  BoundedQueue<int> queue(1, BackpressurePolicy::kDropNewest);
  ASSERT_EQ(queue.Push(1), PushResult::kOk);
  EXPECT_EQ(queue.Push(2), PushResult::kDropped);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(queue.PushWait(3), PushResult::kOk);
    pushed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load(std::memory_order_acquire))
      << "PushWait must block for room, not drop";
  EXPECT_EQ(queue.Pop().value(), 1);
  producer.join();
  EXPECT_EQ(queue.Pop().value(), 3);
}

// --------------------------------------------------------- QueueHandoff ---

TEST(QueueHandoffShutdownTest, ElementsPublishedAfterStopAreDropped) {
  Publisher<int> input;
  Topology topology;
  auto* handoff = topology.Add<QueueHandoff<int>>(&input);
  auto* collect = topology.Add<Collect<int>>(handoff);
  topology.Start();
  input.Publish(StreamElement<int>(1));
  input.Publish(StreamElement<int>(2));
  handoff->Stop();  // close: queued elements drain, later pushes bounce
  input.Publish(StreamElement<int>(3));
  handoff->Join();
  EXPECT_EQ(collect->Elements(), (std::vector<int>{1, 2}))
      << "element published after Stop() leaked through the queue";
  EXPECT_GE(handoff->stats().dropped, 1u);
}

// ---------------------------------------------------------- PartitionBy ---

TEST(PartitionByTest, RoutesByKeyAndBroadcastsPunctuations) {
  constexpr std::size_t kLanes = 3;
  constexpr int kTuples = 21;
  Topology topology;
  std::vector<StreamElement<int>> elements;
  elements.emplace_back(Punctuation::kBeginTxn);
  for (int i = 0; i < kTuples; ++i) elements.emplace_back(i);
  elements.emplace_back(Punctuation::kCommitTxn);
  auto* source = topology.Add<VectorSource<int>>(std::move(elements));
  auto* partition = topology.Add<PartitionBy<int>>(
      source, kLanes, [](const int& v) { return static_cast<std::size_t>(v); });

  struct LaneTrace {
    std::vector<int> data;
    std::vector<Punctuation> puncts;
  };
  std::array<LaneTrace, kLanes> traces;  // each touched by one lane thread
  for (std::size_t i = 0; i < kLanes; ++i) {
    topology.Add<ForEach<int>>(
        partition->lane(i),
        [&traces, i](const int& v) { traces[i].data.push_back(v); },
        [&traces, i](Punctuation p) { traces[i].puncts.push_back(p); });
  }
  topology.Start();
  topology.Join();

  std::vector<int> all;
  for (std::size_t i = 0; i < kLanes; ++i) {
    for (int v : traces[i].data) {
      EXPECT_EQ(static_cast<std::size_t>(v) % kLanes, i)
          << "tuple routed to the wrong lane";
      all.push_back(v);
    }
    EXPECT_EQ(traces[i].puncts,
              (std::vector<Punctuation>{Punctuation::kBeginTxn,
                                        Punctuation::kCommitTxn,
                                        Punctuation::kEndOfStream}))
        << "lane " << i << " missed a broadcast punctuation";
    EXPECT_EQ(partition->lane_stats(i).elements, traces[i].data.size());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kTuples));
  for (int i = 0; i < kTuples; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
}

TEST(PartitionByTest, DropNewestShedsDataButNeverPunctuations) {
  Topology topology;
  std::vector<StreamElement<int>> elements;
  elements.emplace_back(Punctuation::kBeginTxn);
  for (int i = 0; i < 200; ++i) elements.emplace_back(i);
  elements.emplace_back(Punctuation::kCommitTxn);
  auto* source = topology.Add<VectorSource<int>>(std::move(elements));
  PartitionBy<int>::Options options;
  options.queue_capacity = 2;
  options.policy = BackpressurePolicy::kDropNewest;
  auto* partition = topology.Add<PartitionBy<int>>(
      source, 1, [](const int&) { return std::size_t{0}; }, options);
  std::vector<Punctuation> puncts;
  std::atomic<int> data{0};
  topology.Add<ForEach<int>>(
      partition->lane(0),
      [&](const int&) {
        data.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      },
      [&](Punctuation p) { puncts.push_back(p); });
  topology.Start();
  // Must terminate: boundaries and EOS bypass the drop policy, so the lane
  // always sees EOS even while the tiny queue is shedding data.
  topology.Join();
  EXPECT_EQ(puncts,
            (std::vector<Punctuation>{Punctuation::kBeginTxn,
                                      Punctuation::kCommitTxn,
                                      Punctuation::kEndOfStream}));
  EXPECT_GT(partition->stats().dropped, 0u) << "queue never shed data";
  EXPECT_LT(data.load(), 200);
}

TEST(PartitionByTest, StopStillDeliversEosDownstream) {
  // Stop() closes the lane queues, which rejects the source's post-stop
  // EOS — each lane must synthesize one so downstream shutdown (merge
  // alignment, WaitForEos, ToTable's EOS flush) still runs instead of
  // hanging forever.
  Topology topology;
  auto* source = topology.Add<GeneratorSource<int>>(
      [i = 0]() mutable -> std::optional<StreamElement<int>> {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        return StreamElement<int>(i++);
      });
  auto* partition = topology.Add<PartitionBy<int>>(
      source, 2, [](const int& v) { return static_cast<std::size_t>(v); });
  auto* merge = topology.Add<MergePartitions<int>>(partition);
  auto* collect = topology.Add<Collect<int>>(merge);
  topology.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  topology.StopAndJoin();   // must terminate
  collect->WaitForEos();    // and EOS must have crossed the merge
}

// ------------------------------------------------------ MergePartitions ---

TEST(MergePartitionsTest, ForwardsBoundaryOnlyAfterAllLanesDelivered) {
  Publisher<int> lane0;
  Publisher<int> lane1;
  MergePartitions<int> merge(2);
  merge.ConnectInput(0, &lane0);
  merge.ConnectInput(1, &lane1);
  std::vector<std::string> trace;
  ForEach<int> sink(
      &merge, [&](const int& v) { trace.push_back(std::to_string(v)); },
      [&](Punctuation p) { trace.emplace_back(PunctuationName(p)); });

  lane0.Publish(StreamElement<int>(Punctuation::kBeginTxn));
  EXPECT_TRUE(trace.empty()) << "BOT forwarded before lane 1 delivered it";
  // Data behind lane 0's pending boundary must wait too — otherwise the
  // next batch's tuples would overtake this batch's boundary downstream.
  lane0.Publish(StreamElement<int>(1));
  EXPECT_TRUE(trace.empty());
  lane1.Publish(StreamElement<int>(Punctuation::kBeginTxn));
  EXPECT_EQ(trace, (std::vector<std::string>{"BOT", "1"}));
  lane1.Publish(StreamElement<int>(2));  // no pending boundary: direct
  EXPECT_EQ(trace.back(), "2");
  lane0.Publish(StreamElement<int>(Punctuation::kCommitTxn));
  lane0.Publish(StreamElement<int>(Punctuation::kEndOfStream));
  EXPECT_EQ(trace.size(), 3u) << "unaligned COMMIT/EOS leaked";
  lane1.Publish(StreamElement<int>(Punctuation::kCommitTxn));
  EXPECT_EQ(trace.back(), "COMMIT");
  lane1.Publish(StreamElement<int>(Punctuation::kEndOfStream));
  EXPECT_EQ(trace.back(), "EOS");
  EXPECT_EQ(trace.size(), 5u);
}

TEST(MergePartitionsTest, MisalignedLanesFailLoudlyButDrainToEos) {
  // Wiring bug (boundaries NOT injected upstream of the partitioner): the
  // lanes deliver different punctuation sequences. The merge must detect
  // it at runtime (release builds included), count it, and still drain to
  // EOS instead of hanging or silently dropping elements.
  Publisher<int> lane0;
  Publisher<int> lane1;
  MergePartitions<int> merge(2);
  merge.ConnectInput(0, &lane0);
  merge.ConnectInput(1, &lane1);
  std::vector<std::string> trace;
  ForEach<int> sink(
      &merge, [&](const int& v) { trace.push_back(std::to_string(v)); },
      [&](Punctuation p) { trace.emplace_back(PunctuationName(p)); });

  lane0.Publish(StreamElement<int>(Punctuation::kBeginTxn));
  lane1.Publish(StreamElement<int>(Punctuation::kEndOfStream));  // misaligned
  lane0.Publish(StreamElement<int>(7));
  lane0.Publish(StreamElement<int>(Punctuation::kCommitTxn));
  lane0.Publish(StreamElement<int>(Punctuation::kEndOfStream));

  EXPECT_EQ(trace, (std::vector<std::string>{"BOT", "7", "COMMIT", "EOS"}))
      << "best-effort recovery lost elements or never delivered EOS";
  EXPECT_GE(merge.misaligned_count(), 1u);
  EXPECT_EQ(merge.stats().dropped, 0u) << "nothing was actually dropped";
}

// ----------------------------------------------------- topology lifecycle ---

TEST(TopologyLifecycleTest, StopIsIdempotentAndStatsReportCoversOperators) {
  Topology topology;
  auto* source = topology.Add<GeneratorSource<int>>(
      [i = 0]() mutable -> std::optional<StreamElement<int>> {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return StreamElement<int>(i++);
      });
  auto* partition = topology.Add<PartitionBy<int>>(
      source, 2, [](const int& v) { return static_cast<std::size_t>(v); });
  std::atomic<std::uint64_t> consumed{0};
  for (std::size_t i = 0; i < 2; ++i) {
    topology.Add<ForEach<int>>(partition->lane(i), [&](const int&) {
      consumed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  topology.Start();
  topology.Start();  // idempotent: must not double-spawn lane threads
  while (consumed.load(std::memory_order_relaxed) < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  topology.StopAndJoin();
  topology.StopAndJoin();  // idempotent

  const auto report = topology.StatsReport();
  ASSERT_EQ(report.size(), topology.operator_count());
  bool found_partition = false;
  for (const auto& entry : report) {
    if (entry.name == "PartitionBy") {
      found_partition = true;
      EXPECT_GE(entry.stats.elements, 4u);
    }
  }
  EXPECT_TRUE(found_partition);
}

// -------------------------------------------- end-to-end property check ---

TEST(PartitionPropertyTest, NoTupleLostOrDuplicatedAndWindowIdsMonotone) {
  constexpr int kTuples = 2000;
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kWindow = 16;

  struct TaggedBatch {
    std::size_t lane;
    WindowBatch<int> batch;
  };

  Topology topology;
  std::vector<int> values(kTuples);
  for (int i = 0; i < kTuples; ++i) values[static_cast<std::size_t>(i)] = i;
  auto* source = topology.Add<VectorSource<int>>(DataElements(values));
  // Boundaries upstream of the partitioner: identical per-lane sequences.
  auto* batcher = topology.Add<Batcher<int>>(source, 64);
  PartitionBy<int>::Options options;
  options.queue_capacity = 128;  // small: exercises blocking backpressure
  auto* partition = topology.Add<PartitionBy<int>>(
      batcher, kLanes, [](const int& v) { return static_cast<std::size_t>(v); },
      options);
  auto* merge = topology.Add<MergePartitions<TaggedBatch>>(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    auto* window =
        topology.Add<TumblingCountWindow<int>>(partition->lane(i), kWindow);
    auto* tag = topology.Add<Map<WindowBatch<int>, TaggedBatch>>(
        window,
        [i](const WindowBatch<int>& batch) { return TaggedBatch{i, batch}; });
    merge->ConnectInput(i, tag);
  }
  auto* collect = topology.Add<Collect<TaggedBatch>>(merge);

  topology.Start();
  topology.Join();

  std::vector<int> seen;
  std::array<std::vector<std::uint64_t>, kLanes> window_ids;
  for (const TaggedBatch& tagged : collect->Elements()) {
    window_ids[tagged.lane].push_back(tagged.batch.window_id);
    for (int v : tagged.batch.elements) {
      EXPECT_EQ(static_cast<std::size_t>(v) % kLanes, tagged.lane)
          << "tuple crossed lanes";
      seen.push_back(v);
    }
  }
  // Conservation: every input tuple exactly once, none invented.
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kTuples))
      << "tuples lost or duplicated across PartitionBy -> MergePartitions";
  for (int i = 0; i < kTuples; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
  // Per-lane window ids strictly monotone (no reordering within a lane).
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    ASSERT_FALSE(window_ids[lane].empty());
    for (std::size_t k = 1; k < window_ids[lane].size(); ++k) {
      EXPECT_GT(window_ids[lane][k], window_ids[lane][k - 1])
          << "window_id not monotone on lane " << lane;
    }
  }
  // Backpressure was lossless: nothing dropped anywhere.
  EXPECT_EQ(partition->stats().dropped, 0u);
}

}  // namespace
}  // namespace streamsi
