#include <gtest/gtest.h>

#include "core/streamsi.h"
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

TEST(ElementTest, DataAndPunctuation) {
  StreamElement<int> data(42, 7);
  EXPECT_TRUE(data.is_data());
  EXPECT_EQ(data.data(), 42);
  EXPECT_EQ(data.ts(), 7u);

  StreamElement<int> punct(Punctuation::kCommitTxn, 9);
  EXPECT_TRUE(punct.is_punctuation());
  EXPECT_EQ(punct.punctuation(), Punctuation::kCommitTxn);
  auto forwarded = punct.ForwardPunctuation<std::string>();
  EXPECT_EQ(forwarded.punctuation(), Punctuation::kCommitTxn);
  EXPECT_EQ(forwarded.ts(), 9u);
}

TEST(SourceTest, VectorSourceEmitsAllThenEos) {
  Topology topology;
  auto* source =
      topology.Add<VectorSource<int>>(DataElements<int>({1, 2, 3}));
  auto* collect = topology.Add<Collect<int>>(source);
  topology.Start();
  collect->WaitForEos();
  topology.Join();
  EXPECT_EQ(collect->Elements(), (std::vector<int>{1, 2, 3}));
}

TEST(SourceTest, StartIsIdempotent) {
  // Operator-level contract (operator.h): Start() may be retried. A second
  // call on a running source must neither std::terminate (assigning over a
  // joinable std::thread) nor emit the stream twice.
  Topology topology;
  auto* source =
      topology.Add<VectorSource<int>>(DataElements<int>({1, 2}));
  auto* collect = topology.Add<Collect<int>>(source);
  source->Start();
  source->Start();
  collect->WaitForEos();
  topology.Join();
  EXPECT_EQ(collect->Elements(), (std::vector<int>{1, 2}));
}

TEST(SourceTest, GeneratorSourceStopsOnNullopt) {
  Topology topology;
  int i = 0;
  auto* source = topology.Add<GeneratorSource<int>>(
      [&]() -> std::optional<StreamElement<int>> {
        if (i >= 5) return std::nullopt;
        return StreamElement<int>(i++);
      });
  auto* collect = topology.Add<Collect<int>>(source);
  topology.Start();
  collect->WaitForEos();
  topology.Join();
  EXPECT_EQ(collect->size(), 5u);
}

TEST(MapTest, TransformsAndForwardsPunctuations) {
  Topology topology;
  std::vector<StreamElement<int>> elements = DataElements<int>({1, 2, 3});
  elements.insert(elements.begin() + 1,
                  StreamElement<int>(Punctuation::kCommitTxn));
  auto* source = topology.Add<VectorSource<int>>(std::move(elements));
  auto* map = topology.Add<Map<int, std::string>>(
      source, [](const int& v) { return "v" + std::to_string(v * 10); });
  std::vector<std::string> data;
  std::vector<Punctuation> puncts;
  auto* sink = topology.Add<ForEach<std::string>>(
      map, [&](const std::string& s) { data.push_back(s); },
      [&](Punctuation p) { puncts.push_back(p); });
  (void)sink;
  topology.Start();
  topology.Join();
  EXPECT_EQ(data, (std::vector<std::string>{"v10", "v20", "v30"}));
  ASSERT_EQ(puncts.size(), 2u);
  EXPECT_EQ(puncts[0], Punctuation::kCommitTxn);
  EXPECT_EQ(puncts[1], Punctuation::kEndOfStream);
}

TEST(WhereTest, FiltersData) {
  Topology topology;
  auto* source =
      topology.Add<VectorSource<int>>(DataElements<int>({1, 2, 3, 4, 5, 6}));
  auto* where =
      topology.Add<Where<int>>(source, [](const int& v) { return v % 2 == 0; });
  auto* collect = topology.Add<Collect<int>>(where);
  topology.Start();
  collect->WaitForEos();
  topology.Join();
  EXPECT_EQ(collect->Elements(), (std::vector<int>{2, 4, 6}));
}

TEST(BatcherTest, InjectsBotAndCommitEveryN) {
  Topology topology;
  auto* source =
      topology.Add<VectorSource<int>>(DataElements<int>({1, 2, 3, 4, 5}));
  auto* batcher = topology.Add<Batcher<int>>(source, 2);
  std::vector<std::string> trace;
  auto* sink = topology.Add<ForEach<int>>(
      batcher, [&](const int& v) { trace.push_back(std::to_string(v)); },
      [&](Punctuation p) { trace.emplace_back(PunctuationName(p)); });
  (void)sink;
  topology.Start();
  topology.Join();
  EXPECT_EQ(trace, (std::vector<std::string>{
                       "BOT", "1", "2", "COMMIT",      // batch 1
                       "BOT", "3", "4", "COMMIT",      // batch 2
                       "BOT", "5", "COMMIT", "EOS"}))  // flushed at EOS
      << "data-centric boundaries misplaced";
}

TEST(QueueHandoffTest, CrossesThreadBoundary) {
  Topology topology;
  auto* source =
      topology.Add<VectorSource<int>>(DataElements<int>({1, 2, 3, 4}));
  auto* handoff = topology.Add<QueueHandoff<int>>(source);
  auto* collect = topology.Add<Collect<int>>(handoff);
  topology.Start();
  collect->WaitForEos();
  topology.Join();
  EXPECT_EQ(collect->Elements(), (std::vector<int>{1, 2, 3, 4}));
}

TEST(ToTableTest, WriteCountExcludesFailedWrites) {
  // PR 3 regression: ToTable incremented writes_ even when Put/Delete
  // failed, so write_count() overcounted exactly when error_count() grew.
  // The counters must partition the attempts: every data element is either
  // a successful write or an error, never both.
  DatabaseOptions options;
  options.protocol = ProtocolType::kS2pl;  // wait-die gives a failing Put
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto state = (*db)->CreateState("t");
  ASSERT_TRUE(state.ok());
  TransactionalTable<std::uint64_t, std::uint64_t> table(&(*db)->txn_manager(),
                                                         *state);

  // An older transaction holds the exclusive lock on key 1: the stream's
  // younger transaction dies on it (wait-die) and the Put fails.
  auto blocker = (*db)->Begin();
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(table.Put((*blocker)->txn(), 1, 99).ok());

  auto ctx = std::make_shared<StreamTxnContext>(&(*db)->txn_manager());
  Publisher<std::uint64_t> input;
  ToTable<std::uint64_t, std::uint64_t, std::uint64_t> to_table(
      &input, table, ctx, [](const std::uint64_t& v) { return v; },
      [](const std::uint64_t& v) { return v; });

  input.Publish(StreamElement<std::uint64_t>(Punctuation::kBeginTxn));
  input.Publish(StreamElement<std::uint64_t>(1));  // Put fails: wait-die
  EXPECT_EQ(to_table.write_count(), 0u) << "failed write counted as write";
  EXPECT_EQ(to_table.error_count(), 1u);
  // The batch-ending COMMIT on the aborted transaction is a failed commit:
  // another error, still no write.
  input.Publish(StreamElement<std::uint64_t>(Punctuation::kCommitTxn));
  EXPECT_EQ(to_table.write_count(), 0u);
  EXPECT_EQ(to_table.error_count(), 2u);

  ASSERT_TRUE((*blocker)->Abort().ok());  // release the lock
  input.Publish(StreamElement<std::uint64_t>(Punctuation::kBeginTxn));
  input.Publish(StreamElement<std::uint64_t>(2));  // succeeds
  input.Publish(StreamElement<std::uint64_t>(Punctuation::kCommitTxn));
  input.Publish(StreamElement<std::uint64_t>(Punctuation::kEndOfStream));

  EXPECT_EQ(to_table.write_count(), 1u);
  EXPECT_EQ(to_table.error_count(), 2u);
  auto rows = SnapshotOf(&(*db)->txn_manager(), table);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), to_table.write_count())
      << "write_count must equal the successfully written tuples";
}

TEST(TopologyTest, StopInterruptsSource) {
  Topology topology;
  std::atomic<int> produced{0};
  auto* source = topology.Add<GeneratorSource<int>>(
      [&]() -> std::optional<StreamElement<int>> {
        produced.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return StreamElement<int>(1);
      });
  auto* collect = topology.Add<Collect<int>>(source);
  (void)collect;
  topology.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  topology.StopAndJoin();
  const int after_stop = produced.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(produced.load(), after_stop) << "source kept running after stop";
}

}  // namespace
}  // namespace streamsi
