// Where, Map and GroupedAggregate against plain-loop reference models.
//
// Every operator has one chunk body; these tests feed the same logical
// input through dense chunks, selected views (decoy base rows the selection
// skips), per-element delivery and a chunk/element mix, and compare the
// output sequence (values AND timestamps) with a plain loop over the input.
// Edge cases: all-pass, all-reject and empty chunks. Pins: the key
// extractor runs exactly once per tuple on both channels, an all-pass
// chunk forwards the original storage, Where over a selected view
// publishes a selection over the ORIGINAL base arrays, and the operators
// reuse their scratch arrays across chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/stream.h"

namespace streamsi {
namespace {

using Pair = std::pair<std::uint64_t, std::uint64_t>;

constexpr Timestamp kTs0 = 100;
constexpr std::uint64_t kDecoy = ~std::uint64_t{0};
constexpr std::size_t kChunk = 16;

/// 100 scrambled values (the last chunk of 16 is partial) with a run of
/// repeated keys in the middle.
std::vector<std::uint64_t> MakeRows() {
  std::vector<std::uint64_t> rows;
  for (std::uint64_t i = 0; i < 100; ++i) {
    rows.push_back(i >= 40 && i < 48 ? 7 : (i * 2654435761u) % 1000);
  }
  return rows;
}

enum class Delivery { kDense, kSelected, kElement, kMixed };

/// True when Feed() delivers piece `piece` per element instead of as a
/// chunk.
bool PerElement(Delivery delivery, std::size_t piece) {
  return delivery == Delivery::kElement ||
         (delivery == Delivery::kMixed && piece % 2 == 1);
}

/// Publishes `rows` (row i carries timestamp kTs0 + i) in kChunk-row
/// pieces. kSelected interleaves a decoy base row before every real row
/// and selects only the real ones; kMixed alternates dense chunks with
/// per-element runs.
void Feed(Publisher<std::uint64_t>* in, const std::vector<std::uint64_t>& rows,
          Delivery delivery) {
  std::size_t piece = 0;
  for (std::size_t lo = 0; lo < rows.size(); lo += kChunk, ++piece) {
    const std::size_t hi = std::min(rows.size(), lo + kChunk);
    if (PerElement(delivery, piece)) {
      for (std::size_t i = lo; i < hi; ++i) {
        in->Publish(StreamElement<std::uint64_t>(rows[i], kTs0 + i));
      }
    } else if (delivery == Delivery::kSelected) {
      Chunk<std::uint64_t> base(2 * kChunk);
      std::vector<std::uint32_t> sel;
      for (std::size_t i = lo; i < hi; ++i) {
        base.Append(kDecoy, 0);
        sel.push_back(static_cast<std::uint32_t>(base.size()));
        base.Append(rows[i], kTs0 + i);
      }
      in->PublishChunk(ChunkView<std::uint64_t>(
          base.view().data(), base.view().ts_data(), sel.data(), sel.size()));
    } else {
      Chunk<std::uint64_t> dense(kChunk);
      for (std::size_t i = lo; i < hi; ++i) dense.Append(rows[i], kTs0 + i);
      in->PublishChunk(dense.view());
    }
  }
}

/// Number of chunk deliveries Feed() makes.
std::uint64_t ChunkDeliveries(std::size_t rows, Delivery delivery) {
  std::uint64_t chunks = 0;
  for (std::size_t piece = 0; piece * kChunk < rows; ++piece) {
    chunks += PerElement(delivery, piece) ? 0 : 1;
  }
  return chunks;
}

/// Records an operator's output on both channels, in delivery order.
template <typename V>
struct Recorder {
  std::vector<V> values;
  std::vector<Timestamp> ts;

  explicit Recorder(Publisher<V>* out) {
    out->SubscribeWith(
        [this](const StreamElement<V>& e) {
          if (e.is_data()) {
            values.push_back(e.data());
            ts.push_back(e.ts());
          }
        },
        [this](const ChunkView<V>& view) {
          for (std::size_t i = 0; i < view.size(); ++i) {
            values.push_back(view[i]);
            ts.push_back(view.ts(i));
          }
        });
  }
};

class OperatorReferenceTest : public ::testing::TestWithParam<Delivery> {};

TEST_P(OperatorReferenceTest, WhereMatchesPlainLoop) {
  const auto pred = [](const std::uint64_t& v) { return v % 3 != 0; };
  const std::vector<std::uint64_t> rows = MakeRows();
  Publisher<std::uint64_t> input;
  Where<std::uint64_t> where(&input, pred);
  Recorder<std::uint64_t> out(&where);
  Feed(&input, rows, GetParam());

  std::vector<std::uint64_t> expected;
  std::vector<Timestamp> expected_ts;
  std::uint64_t chunked_in = 0;
  std::uint64_t chunked_out = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const bool chunked = !PerElement(GetParam(), i / kChunk);
    chunked_in += chunked ? 1 : 0;
    if (!pred(rows[i])) continue;
    chunked_out += chunked ? 1 : 0;
    expected.push_back(rows[i]);
    expected_ts.push_back(kTs0 + i);
  }
  EXPECT_EQ(out.values, expected);
  EXPECT_EQ(out.ts, expected_ts);

  const OperatorStats stats = where.stats();
  EXPECT_EQ(stats.kernel_chunks, ChunkDeliveries(rows.size(), GetParam()));
  EXPECT_EQ(stats.fallback_chunks, 0u);
  EXPECT_EQ(stats.kernel_tuples_in, chunked_in);
  EXPECT_EQ(stats.kernel_tuples_out, chunked_out);
}

TEST_P(OperatorReferenceTest, MapMatchesPlainLoop) {
  const auto fn = [](const std::uint64_t& v) { return v * 2 + 1; };
  const std::vector<std::uint64_t> rows = MakeRows();
  Publisher<std::uint64_t> input;
  Map<std::uint64_t, std::uint64_t> map(&input, fn);
  Recorder<std::uint64_t> out(&map);
  Feed(&input, rows, GetParam());

  std::vector<std::uint64_t> expected;
  std::vector<Timestamp> expected_ts;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expected.push_back(fn(rows[i]));
    expected_ts.push_back(kTs0 + i);
  }
  EXPECT_EQ(out.values, expected);
  EXPECT_EQ(out.ts, expected_ts);
  EXPECT_EQ(map.stats().kernel_chunks,
            ChunkDeliveries(rows.size(), GetParam()));
  EXPECT_EQ(map.stats().fallback_chunks, 0u);
}

TEST_P(OperatorReferenceTest, GroupedAggregateMatchesPlainLoop) {
  const auto key = [](const std::uint64_t& v) { return v % 8; };
  const auto fold = [](std::uint64_t& acc, const std::uint64_t& v) {
    acc += v;
  };
  const std::vector<std::uint64_t> rows = MakeRows();
  Publisher<std::uint64_t> input;
  GroupedAggregate<std::uint64_t, std::uint64_t, std::uint64_t> agg(
      &input, key, std::uint64_t{0}, fold);
  Recorder<Pair> out(&agg);
  Feed(&input, rows, GetParam());

  std::vector<Pair> expected;
  std::vector<Timestamp> expected_ts;
  std::unordered_map<std::uint64_t, std::uint64_t> groups;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::uint64_t& acc = groups[key(rows[i])];
    fold(acc, rows[i]);
    expected.emplace_back(key(rows[i]), acc);
    expected_ts.push_back(kTs0 + i);
  }
  EXPECT_EQ(out.values, expected);
  EXPECT_EQ(out.ts, expected_ts);
  EXPECT_EQ(agg.groups(), groups);
  EXPECT_EQ(agg.stats().kernel_chunks,
            ChunkDeliveries(rows.size(), GetParam()));
  EXPECT_EQ(agg.stats().fallback_chunks, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDeliveries, OperatorReferenceTest,
                         ::testing::Values(Delivery::kDense,
                                           Delivery::kSelected,
                                           Delivery::kElement,
                                           Delivery::kMixed),
                         [](const auto& info) {
                           switch (info.param) {
                             case Delivery::kDense: return "Dense";
                             case Delivery::kSelected: return "Selected";
                             case Delivery::kElement: return "Element";
                             case Delivery::kMixed: return "Mixed";
                           }
                           return "Unknown";
                         });

// --------------------------------------------------------- Where edges ---

/// Captures the last chunk view a publisher delivered (pointers and
/// values; the view itself dies with the call).
template <typename V>
struct ViewProbe {
  std::size_t calls = 0;
  const V* data = nullptr;
  const Timestamp* ts_data = nullptr;
  const std::uint32_t* selection = nullptr;
  std::vector<V> values;

  explicit ViewProbe(Publisher<V>* out) {
    out->SubscribeWith([](const StreamElement<V>&) {},
                       [this](const ChunkView<V>& view) {
                         ++calls;
                         data = view.data();
                         ts_data = view.ts_data();
                         selection = view.selection();
                         values.clear();
                         for (std::size_t i = 0; i < view.size(); ++i) {
                           values.push_back(view[i]);
                         }
                       });
  }
};

TEST(WhereEdgeTest, AllPassForwardsOriginalStorage) {
  Publisher<int> input;
  Where<int> where(&input, [](const int&) { return true; });
  ViewProbe<int> probe(&where);

  Chunk<int> chunk(4);
  for (int v : {1, 2, 3, 4}) chunk.Append(v, 0);
  input.PublishChunk(chunk.view());
  EXPECT_EQ(probe.data, chunk.view().data())
      << "all-pass must forward the original storage";
  EXPECT_EQ(probe.selection, nullptr) << "dense all-pass stays dense";
  EXPECT_EQ(probe.values, (std::vector<int>{1, 2, 3, 4}));
}

TEST(WhereEdgeTest, AllRejectAndEmptyChunksPublishNothing) {
  Publisher<int> input;
  Where<int> where(&input, [](const int& v) { return v > 100; });
  ViewProbe<int> probe(&where);

  Chunk<int> chunk(3);
  for (int v : {1, 2, 3}) chunk.Append(v, 0);
  input.PublishChunk(chunk.view());
  input.PublishChunk(ChunkView<int>());
  EXPECT_EQ(probe.calls, 0u);

  const OperatorStats stats = where.stats();
  EXPECT_EQ(stats.kernel_chunks, 1u) << "empty chunks are not counted";
  EXPECT_EQ(stats.kernel_tuples_in, 3u);
  EXPECT_EQ(stats.kernel_tuples_out, 0u);
  EXPECT_DOUBLE_EQ(stats.kernel_selectivity(), 0.0);
}

TEST(WhereEdgeTest, PartialPassShipsSelectionOverOriginalData) {
  Publisher<int> input;
  Where<int> where(&input, [](const int& v) { return v % 2 == 0; });
  ViewProbe<int> probe(&where);

  Chunk<int> chunk(5);
  for (int v = 0; v < 5; ++v) chunk.Append(v, static_cast<Timestamp>(10 + v));
  input.PublishChunk(chunk.view());
  EXPECT_EQ(probe.data, chunk.view().data())
      << "partial pass must not copy tuple data";
  EXPECT_EQ(probe.ts_data, chunk.view().ts_data());
  ASSERT_NE(probe.selection, nullptr);
  EXPECT_EQ(probe.values, (std::vector<int>{0, 2, 4}));
}

// A selected input view composes: the output selection holds BASE row
// indices into the input's own arrays, with no copy into a scratch chunk.
TEST(WhereEdgeTest, SelectedInputPublishesSelectionOverBaseArrays) {
  Publisher<int> input;
  Where<int> where(&input, [](const int& v) { return v > 0; });
  ViewProbe<int> probe(&where);

  Chunk<int> chunk(6);
  for (int v : {-1, 1, -2, 2, 5, -3}) chunk.Append(v, 0);
  const std::uint32_t sel[] = {1, 2, 3, 5};
  input.PublishChunk(
      ChunkView<int>(chunk.view().data(), chunk.view().ts_data(), sel, 4));

  EXPECT_EQ(probe.data, chunk.view().data())
      << "selected input must publish over the original base arrays";
  ASSERT_NE(probe.selection, nullptr);
  EXPECT_EQ(probe.selection[0], 1u);
  EXPECT_EQ(probe.selection[1], 3u);
  EXPECT_EQ(probe.values, (std::vector<int>{1, 2}));
  const OperatorStats stats = where.stats();
  EXPECT_EQ(stats.kernel_chunks, 1u);
  EXPECT_EQ(stats.fallback_chunks, 0u);

  // All-pass over a selected view forwards that view unchanged.
  const std::uint32_t positive[] = {1, 3, 4};
  input.PublishChunk(ChunkView<int>(chunk.view().data(),
                                    chunk.view().ts_data(), positive, 3));
  EXPECT_EQ(probe.data, chunk.view().data());
  EXPECT_EQ(probe.selection, positive);
  EXPECT_EQ(probe.values, (std::vector<int>{1, 2, 5}));
}

TEST(WhereEdgeTest, StdFunctionPredicateStillCompiles) {
  Publisher<int> input;
  const std::function<bool(const int&)> pred = [](const int& v) {
    return v != 2;
  };
  Where<int> where(&input, pred);
  Collect<int> out(&where);
  Chunk<int> chunk(3);
  for (int v : {1, 2, 3}) chunk.Append(v, 0);
  input.PublishChunk(chunk.view());
  input.Publish(StreamElement<int>(2, 0));
  input.Publish(StreamElement<int>(4, 0));
  EXPECT_EQ(out.Elements(), (std::vector<int>{1, 3, 4}));
}

// ------------------------------------------------------ Map / aggregate ---

TEST(MapEdgeTest, DenseInputSharesTimestampArray) {
  Publisher<std::uint64_t> input;
  Map<std::uint64_t, std::uint64_t> map(
      &input, [](const std::uint64_t& v) { return v + 1; });
  ViewProbe<std::uint64_t> probe(&map);

  Chunk<std::uint64_t> chunk(4);
  for (std::uint64_t v = 0; v < 4; ++v) chunk.Append(v, kTs0 + v);
  input.PublishChunk(chunk.view());
  EXPECT_EQ(probe.ts_data, chunk.view().ts_data())
      << "dense input must share its timestamp array";
  EXPECT_EQ(probe.selection, nullptr);
  EXPECT_EQ(probe.values, (std::vector<std::uint64_t>{1, 2, 3, 4}));

  input.PublishChunk(ChunkView<std::uint64_t>());
  EXPECT_EQ(probe.calls, 1u) << "an empty chunk publishes nothing";
}

TEST(GroupedAggregateEdgeTest, EmptyChunkPublishesNothing) {
  Publisher<std::uint64_t> input;
  GroupedAggregate<std::uint64_t, std::uint64_t, std::uint64_t> agg(
      &input, [](const std::uint64_t& v) { return v; }, std::uint64_t{0},
      [](std::uint64_t& acc, const std::uint64_t&) { ++acc; });
  ViewProbe<Pair> probe(&agg);
  input.PublishChunk(ChunkView<std::uint64_t>());
  EXPECT_EQ(probe.calls, 0u);
  EXPECT_EQ(agg.stats().kernel_chunks, 0u);
  EXPECT_TRUE(agg.groups().empty());
}

TEST(GroupedAggregateEdgeTest, TableGrowthKeepsGroupsExact) {
  Publisher<std::uint64_t> input;
  GroupedAggregate<std::uint64_t, std::uint64_t, std::uint64_t> agg(
      &input, [](const std::uint64_t& v) { return v; }, std::uint64_t{0},
      [](std::uint64_t& acc, const std::uint64_t&) { acc += 1; });

  // More distinct keys than the initial table capacity (1024), in several
  // chunks, some keys repeated across chunks.
  constexpr std::uint64_t kKeys = 3000;
  Chunk<std::uint64_t> chunk(256);
  for (std::uint64_t v = 0; v < kKeys * 2; ++v) {
    chunk.Append(v % kKeys, 0);
    if (chunk.full()) {
      input.PublishChunk(chunk.view());
      chunk.Clear();
    }
  }
  if (!chunk.empty()) input.PublishChunk(chunk.view());

  ASSERT_EQ(agg.groups().size(), kKeys);
  for (const auto& [key, count] : agg.groups()) {
    EXPECT_EQ(count, 2u) << "key " << key;
  }
}

// Exactly ONE key extraction per tuple on every channel: the pipelined
// chunk pass must not re-extract to emit the update pair.
TEST(GroupedAggregateEdgeTest, ExtractorRunsOncePerTuple) {
  Publisher<int> input;
  std::size_t calls = 0;
  GroupedAggregate<int, int, int> agg(
      &input,
      [&calls](const int& v) {
        ++calls;
        return v % 2;
      },
      0, [](int& acc, const int& v) { acc += v; });
  Collect<std::pair<int, int>> out(&agg);

  Chunk<int> chunk(8);
  for (int v = 0; v < 8; ++v) chunk.Append(v, 0);
  input.PublishChunk(chunk.view());
  EXPECT_EQ(calls, 8u) << "dense chunk must extract each key exactly once";

  const std::uint32_t sel[] = {0, 3, 5};
  input.PublishChunk(
      ChunkView<int>(chunk.view().data(), chunk.view().ts_data(), sel, 3));
  EXPECT_EQ(calls, 11u) << "selected chunk must extract each key once";

  input.Publish(StreamElement<int>(9, 0));
  EXPECT_EQ(calls, 12u) << "element channel must extract exactly once";
  EXPECT_EQ(out.size(), 12u);
}

// ------------------------------------------------------- scratch reuse ---

TEST(OperatorScratchTest, WhereAndAggregateReuseScratchAcrossChunks) {
  Publisher<std::uint64_t> input;
  Where<std::uint64_t> where(
      &input, [](const std::uint64_t& v) { return v % 2 == 0; });
  GroupedAggregate<std::uint64_t, std::uint64_t, std::uint64_t> agg(
      &where, [](const std::uint64_t& v) { return v % 8; }, std::uint64_t{0},
      [](std::uint64_t& acc, const std::uint64_t& v) { acc += v; });
  std::set<const std::uint32_t*> selections;
  where.SubscribeWith([](const StreamElement<std::uint64_t>&) {},
                      [&](const ChunkView<std::uint64_t>& view) {
                        selections.insert(view.selection());
                      });
  std::set<const Pair*> outputs;
  std::uint64_t drained = 0;
  agg.SubscribeWith([](const StreamElement<Pair>&) {},
                    [&](const ChunkView<Pair>& view) {
                      outputs.insert(view.data());
                      drained += view.size();
                    });

  Chunk<std::uint64_t> chunk(64);
  for (int round = 0; round < 200; ++round) {
    chunk.Clear();
    for (std::uint64_t v = 0; v < 64; ++v) {
      chunk.Append(v + static_cast<std::uint64_t>(round), 0);
    }
    input.PublishChunk(chunk.view());
  }
  EXPECT_EQ(drained, 200u * 32u);
  EXPECT_EQ(selections.size(), 1u) << "Where reallocated its selection";
  EXPECT_EQ(outputs.size(), 1u) << "GroupedAggregate reallocated its output";
  EXPECT_EQ(where.stats().kernel_chunks, 200u);
  EXPECT_EQ(agg.stats().kernel_chunks, 200u);
}

// ------------------------------------------------------ selection views ---

TEST(SelectionViewTest, IndirectsAndSlices) {
  Chunk<int> chunk(6);
  for (int v = 0; v < 6; ++v) {
    chunk.Append(v * 10, static_cast<Timestamp>(100 + v));
  }
  const ChunkView<int> dense = chunk.view();
  EXPECT_TRUE(dense.dense());
  EXPECT_EQ(dense.selection(), nullptr);

  const std::uint32_t sel[] = {1, 3, 5};
  const ChunkView<int> selected(dense.data(), dense.ts_data(), sel, 3);
  EXPECT_FALSE(selected.dense());
  ASSERT_EQ(selected.size(), 3u);
  EXPECT_EQ(selected[0], 10);
  EXPECT_EQ(selected[1], 30);
  EXPECT_EQ(selected[2], 50);
  EXPECT_EQ(selected.ts(0), 101u);
  EXPECT_EQ(selected.ts(2), 105u);

  // Slicing a selected view slices the selection, not the base arrays.
  const ChunkView<int> slice = selected.Slice(1, 2);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_FALSE(slice.dense());
  EXPECT_EQ(slice[0], 30);
  EXPECT_EQ(slice[1], 50);
  EXPECT_EQ(slice.ts(0), 103u);
}

TEST(SelectionViewTest, AppendViewCompactsSelection) {
  Chunk<int> source(4);
  for (int v = 0; v < 4; ++v) source.Append(v, static_cast<Timestamp>(v));
  const std::uint32_t sel[] = {0, 2};
  const ChunkView<int> selected(source.view().data(), source.view().ts_data(),
                                sel, 2);

  Chunk<int> copy(4);
  copy.AppendView(selected);
  ASSERT_EQ(copy.size(), 2u);
  const ChunkView<int> dense = copy.view();
  EXPECT_TRUE(dense.dense());
  EXPECT_EQ(dense[0], 0);
  EXPECT_EQ(dense[1], 2);
  EXPECT_EQ(dense.ts(1), 2u);
}

}  // namespace
}  // namespace streamsi
