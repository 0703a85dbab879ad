#include "core/group_commit_log.h"

#include <gtest/gtest.h>

#include "common/coding.h"
#include "core/commit_record.h"
#include "tests/test_util.h"

namespace streamsi {
namespace {

class GroupCommitLogTest : public ::testing::Test {
 protected:
  std::string Path() const { return dir_.path() + "/groups.log"; }

  /// Appends a legacy single-group kCheckpoint record (the pre-segment era
  /// encoder was removed; recovery still decodes the records).
  static void AppendLegacyRecord(const std::string& path, GroupId group,
                                 Timestamp cts) {
    WalWriter writer(SyncMode::kNone, 0);
    ASSERT_TRUE(writer.Open(path, /*truncate=*/false).ok());
    std::string payload;
    PutVarint32(&payload, group);
    PutVarint64(&payload, cts);
    ASSERT_TRUE(
        writer.Append(WalRecordType::kCheckpoint, payload, /*sync=*/true)
            .ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  testing::TempDir dir_;
};

TEST_F(GroupCommitLogTest, ReplayEmptyOrMissing) {
  auto replayed = GroupCommitLog::Replay(Path());  // missing file
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->empty());
}

TEST_F(GroupCommitLogTest, KeepsNewestCtsPerGroup) {
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    const GroupId g0[] = {0};
    const GroupId g1[] = {1};
    ASSERT_TRUE(log.RecordCommit(g0, 1, 10, false).ok());
    ASSERT_TRUE(log.RecordCommit(g1, 1, 11, false).ok());
    ASSERT_TRUE(log.RecordCommit(g0, 1, 25, false).ok());
    ASSERT_TRUE(log.RecordCommit(g1, 1, 8, true).ok());  // older: ignored
    ASSERT_TRUE(log.Close().ok());
  }
  auto replayed = GroupCommitLog::Replay(Path());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->size(), 2u);
  EXPECT_EQ(replayed->at(0), 25u);
  EXPECT_EQ(replayed->at(1), 11u);
}

TEST_F(GroupCommitLogTest, SurvivesTornTail) {
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    const GroupId g0[] = {0};
    ASSERT_TRUE(log.RecordCommit(g0, 1, 42, true).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  {
    auto file = Env::Default()->NewWritableFile(Path(), false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("\xBA\xAD").ok());  // torn partial frame
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto replayed = GroupCommitLog::Replay(Path());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->at(0), 42u);
}

TEST_F(GroupCommitLogTest, RecordCommitCoversAllGroupsAtomically) {
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    const GroupId commit1[] = {0, 2, 5};
    ASSERT_TRUE(log.RecordCommit(commit1, 3, 30, false).ok());
    const GroupId commit2[] = {2};
    ASSERT_TRUE(log.RecordCommit(commit2, 1, 40, true).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  auto replayed = GroupCommitLog::Replay(Path());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->at(0), 30u);
  EXPECT_EQ(replayed->at(2), 40u);
  EXPECT_EQ(replayed->at(5), 30u);
}

TEST_F(GroupCommitLogTest, MixedEraLogReplaysAllRecordKinds) {
  // One file carrying all three eras: legacy single-group kCheckpoint
  // records, kGroupCommit records, and a kCheckpointCut — on-disk
  // compatibility across the removed legacy append path.
  AppendLegacyRecord(Path(), 5, 35);
  AppendLegacyRecord(Path(), 6, 12);
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());  // appends after the legacy records
    const GroupId commit[] = {0, 6};
    ASSERT_TRUE(log.RecordCommit(commit, 2, 40, true).ok());
    const std::pair<GroupId, Timestamp> cut[] = {{0, 40}, {5, 35}, {6, 40}};
    ASSERT_TRUE(log.WriteCheckpoint(cut, 3).ok());
    const GroupId after[] = {5};
    ASSERT_TRUE(log.RecordCommit(after, 1, 50, true).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  GroupCommitLog::ReplayInfo info;
  auto replayed = GroupCommitLog::Replay(Path(), &info);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(replayed->at(0), 40u);
  EXPECT_EQ(replayed->at(5), 50u);  // the post-checkpoint commit wins
  EXPECT_EQ(replayed->at(6), 40u);
}

TEST_F(GroupCommitLogTest, TornMultiGroupRecordDropsWholeCommit) {
  // A multi-group publication is ONE record: a crash that tears it must
  // recover none of its groups (never a subset).
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    const GroupId first[] = {1, 2};
    ASSERT_TRUE(log.RecordCommit(first, 2, 10, true).ok());
    const GroupId second[] = {1, 2, 3};
    ASSERT_TRUE(log.RecordCommit(second, 3, 20, true).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  std::string contents;
  ASSERT_TRUE(fsutil::ReadFileToString(Path(), &contents).ok());
  ASSERT_TRUE(fsutil::WriteStringToFileAtomic(
                  Path(), contents.substr(0, contents.size() - 2))
                  .ok());
  auto replayed = GroupCommitLog::Replay(Path());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->at(1), 10u);
  EXPECT_EQ(replayed->at(2), 10u);
  EXPECT_EQ(replayed->count(3), 0u);  // the torn commit vanished entirely
}

TEST_F(GroupCommitLogTest, ReopenAfterTornTailStartsFreshSegment) {
  // Appending after torn garbage would make every later record
  // unreachable to replay (it stops at the first bad frame) — a reopen
  // must retire the torn segment and continue in a fresh one.
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    const GroupId g0[] = {0};
    ASSERT_TRUE(log.RecordCommit(g0, 1, 10, true).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  {
    auto file = Env::Default()->NewWritableFile(Path(), false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("\xDE\xAD\xBE").ok());  // crash tail
    ASSERT_TRUE((*file)->Close().ok());
  }
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    EXPECT_EQ(log.current_segment(), 1u);  // fresh segment, not the torn one
    const GroupId g0[] = {0};
    ASSERT_TRUE(log.RecordCommit(g0, 1, 20, true).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  auto replayed = GroupCommitLog::Replay(Path());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->at(0), 20u)
      << "post-reopen record must survive the next replay";
}

TEST_F(GroupCommitLogTest, MidLogBitFlipStopsReplayAndReopenRetiresSegment) {
  // A flipped bit in the MIDDLE of a segment (silent media corruption, not
  // a torn tail): replay must stop at the bad frame — the records behind it
  // are unreachable, never misdecoded — and a reopen must retire the
  // segment rather than append after garbage.
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    const GroupId g0[] = {0};
    ASSERT_TRUE(log.RecordCommit(g0, 1, 10, false).ok());
    ASSERT_TRUE(log.RecordCommit(g0, 1, 20, false).ok());
    ASSERT_TRUE(log.RecordCommit(g0, 1, 30, true).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  std::string contents;
  ASSERT_TRUE(fsutil::ReadFileToString(Path(), &contents).ok());
  // Walk the [crc(4)][len(4)][type(1)][payload] frames to the second one
  // and flip one bit in its payload.
  std::size_t offset = 0;
  for (int frame = 0; frame < 1; ++frame) {
    offset += 9 + DecodeFixed32(contents.data() + offset + 4);
  }
  const std::size_t flip_at =
      offset + 9;  // first payload byte of frame 2
  ASSERT_LT(flip_at, contents.size());
  contents[flip_at] ^= 0x01;
  ASSERT_TRUE(fsutil::WriteStringToFileAtomic(Path(), contents).ok());

  auto replayed = GroupCommitLog::Replay(Path());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->at(0), 10u)
      << "replay must stop at the corrupt frame; later records are gone";

  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    EXPECT_EQ(log.current_segment(), 1u)
        << "reopen must start a fresh segment, never append after garbage";
    const GroupId g0[] = {0};
    ASSERT_TRUE(log.RecordCommit(g0, 1, 40, true).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  replayed = GroupCommitLog::Replay(Path());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->at(0), 40u);
}

TEST_F(GroupCommitLogTest, AppendAcrossReopens) {
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    const GroupId g[] = {3};
    ASSERT_TRUE(log.RecordCommit(g, 1, 7, false).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());  // append, not truncate
    const GroupId g[] = {3};
    ASSERT_TRUE(log.RecordCommit(g, 1, 9, false).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  auto replayed = GroupCommitLog::Replay(Path());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->at(3), 9u);
}

TEST_F(GroupCommitLogTest, CheckpointTruncatesChainAndReplayStartsThere) {
  GroupCommitLog log(SyncMode::kNone, 0);
  ASSERT_TRUE(log.Open(Path()).ok());
  const GroupId g0[] = {0};
  for (Timestamp cts = 1; cts <= 100; ++cts) {
    ASSERT_TRUE(log.RecordCommit(g0, 1, cts, false).ok());
  }
  // Checkpoint protocol: rotate, cut, prune.
  ASSERT_TRUE(log.RotateSegment().ok());
  EXPECT_EQ(log.current_segment(), 1u);
  const std::pair<GroupId, Timestamp> cut[] = {{0, 100}};
  ASSERT_TRUE(log.WriteCheckpoint(cut, 1).ok());
  ASSERT_TRUE(log.PruneObsoleteSegments().ok());
  EXPECT_EQ(log.SegmentCount(), 1u);
  EXPECT_FALSE(fsutil::FileExists(Path()));  // segment 0 deleted

  // Post-checkpoint commits land in the surviving segment.
  ASSERT_TRUE(log.RecordCommit(g0, 1, 101, true).ok());
  ASSERT_TRUE(log.Close().ok());

  GroupCommitLog::ReplayInfo info;
  auto replayed = GroupCommitLog::Replay(Path(), &info);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.segments_present, 1u);
  EXPECT_EQ(replayed->at(0), 101u);
}

TEST_F(GroupCommitLogTest, FailedPruneKeepsReplayCorrect) {
  GroupCommitLog log(SyncMode::kNone, 0);
  ASSERT_TRUE(log.Open(Path()).ok());
  const GroupId g0[] = {0};
  ASSERT_TRUE(log.RecordCommit(g0, 1, 10, false).ok());
  ASSERT_TRUE(log.RotateSegment().ok());
  const std::pair<GroupId, Timestamp> cut[] = {{0, 10}};
  ASSERT_TRUE(log.WriteCheckpoint(cut, 1).ok());
  log.InjectCheckpointFault(GroupCommitLog::CheckpointFault::kBeforePrune);
  EXPECT_FALSE(log.PruneObsoleteSegments().ok());
  EXPECT_EQ(log.SegmentCount(), 2u);  // stale segment survives
  ASSERT_TRUE(log.RecordCommit(g0, 1, 20, true).ok());
  ASSERT_TRUE(log.Close().ok());

  // Replay starts at the checkpoint segment; the stale chain is skipped.
  GroupCommitLog::ReplayInfo info;
  auto replayed = GroupCommitLog::Replay(Path(), &info);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.segments_present, 2u);
  EXPECT_EQ(info.segments_replayed, 1u);
  EXPECT_EQ(replayed->at(0), 20u);
}

TEST_F(GroupCommitLogTest, TornCheckpointFallsBackToPreviousChain) {
  // Crash between rotation and the checkpoint record: the new segment
  // exists but has no cut. Replay must walk back into the old chain.
  GroupCommitLog log(SyncMode::kNone, 0);
  ASSERT_TRUE(log.Open(Path()).ok());
  const GroupId g0[] = {0};
  const GroupId g1[] = {1};
  ASSERT_TRUE(log.RecordCommit(g0, 1, 10, false).ok());
  ASSERT_TRUE(log.RecordCommit(g1, 1, 12, false).ok());
  ASSERT_TRUE(log.RotateSegment().ok());
  log.InjectCheckpointFault(
      GroupCommitLog::CheckpointFault::kBeforeCheckpointRecord);
  const std::pair<GroupId, Timestamp> cut[] = {{0, 10}, {1, 12}};
  EXPECT_FALSE(log.WriteCheckpoint(cut, 2).ok());
  // The aborted checkpoint never pruned; commits continue in the new
  // segment.
  ASSERT_TRUE(log.RecordCommit(g0, 1, 20, true).ok());
  ASSERT_TRUE(log.Close().ok());

  GroupCommitLog::ReplayInfo info;
  auto replayed = GroupCommitLog::Replay(Path(), &info);
  ASSERT_TRUE(replayed.ok());
  EXPECT_FALSE(info.from_checkpoint);
  EXPECT_EQ(info.segments_replayed, 2u);  // full chain: nothing subsumed it
  EXPECT_EQ(replayed->at(0), 20u);
  EXPECT_EQ(replayed->at(1), 12u);  // old-chain-only group survives
}

/// Every segment file of the chain at `root`, with its size.
std::vector<std::pair<std::uint64_t, std::uint64_t>> SegmentSizes(
    const std::string& root) {
  std::vector<std::uint64_t> numbers;
  EXPECT_TRUE(GroupCommitLog::ListSegmentsOnDisk(nullptr, root, &numbers).ok());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sizes;
  for (std::uint64_t n : numbers) {
    std::uint64_t size = 0;
    EXPECT_TRUE(Env::Default()
                    ->FileSize(GroupCommitLog::SegmentPath(root, n), &size)
                    .ok());
    sizes.emplace_back(n, size);
  }
  return sizes;
}

/// The cts of every commit record ReplayCommits hands out, in log order.
std::vector<Timestamp> ReplayedCommitTs(const std::string& root,
                                        std::uint64_t first_segment) {
  std::vector<Timestamp> cts;
  EXPECT_TRUE(GroupCommitLog::ReplayCommits(
                  root, first_segment,
                  [&](std::string_view payload) {
                    CommitRecord record;
                    STREAMSI_RETURN_NOT_OK(
                        DecodeCommitRecord(payload, &record));
                    cts.push_back(record.cts);
                    return Status::OK();
                  })
                  .ok());
  return cts;
}

std::vector<Timestamp> Range(Timestamp first, Timestamp last) {
  std::vector<Timestamp> out;
  for (Timestamp cts = first; cts <= last; ++cts) out.push_back(cts);
  return out;
}

TEST_F(GroupCommitLogTest, RollsAtTheSegmentSizeAndReplaysEveryRecord) {
  // Real roll size, 1 MiB records: 70 commits cross 64 MiB once.
  const std::string blob(1 << 20, 'x');
  constexpr Timestamp kCommits = 70;
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    const GroupId g0[] = {0};
    for (Timestamp cts = 1; cts <= kCommits; ++cts) {
      ASSERT_TRUE(log.RecordCommit(g0, 1, cts, /*sync=*/true, blob).ok());
    }
    EXPECT_EQ(log.current_segment(), 1u);
    EXPECT_EQ(log.SegmentCount(), 2u);
    ASSERT_TRUE(log.Close().ok());
  }
  const auto sizes = SegmentSizes(Path());
  ASSERT_EQ(sizes.size(), 2u);
  for (const auto& [n, size] : sizes) {
    // One record past the limit at most: the crossing commit rolls.
    EXPECT_LE(size, GroupCommitLog::kSegmentRollBytes + blob.size() + 64)
        << "segment " << n;
  }
  EXPECT_GE(sizes[0].second, GroupCommitLog::kSegmentRollBytes);

  GroupCommitLog::ReplayInfo info;
  auto replayed = GroupCommitLog::Replay(Path(), &info);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->at(0), kCommits);
  EXPECT_EQ(info.segments_replayed, 2u);
  EXPECT_EQ(info.committed_cts.size(), kCommits);
  EXPECT_EQ(ReplayedCommitTs(Path(), info.first_segment), Range(1, kCommits));
}

TEST_F(GroupCommitLogTest, NoRollBetweenRotationAndCheckpointCut) {
  // A roll inside the window would put the cut in a later segment than the
  // rotation; replay starts at the cut's segment and would never read the
  // commits logged between rotation and cut.
  const std::string blob(1 << 20, 'y');
  const GroupId g0[] = {0};
  constexpr Timestamp kInWindow = 66;  // 66 MiB: past the roll size
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    ASSERT_TRUE(log.RotateSegment().ok());
    for (Timestamp cts = 1; cts <= kInWindow; ++cts) {
      ASSERT_TRUE(log.RecordCommit(g0, 1, cts, true, blob).ok());
    }
    EXPECT_EQ(log.current_segment(), 1u)
        << "a size roll ran between rotation and cut";
    const std::pair<GroupId, Timestamp> cut[] = {{0, 0}};
    ASSERT_TRUE(log.WriteCheckpoint(cut, 1).ok());
    ASSERT_TRUE(log.RecordCommit(g0, 1, kInWindow + 1, true, blob).ok());
    EXPECT_EQ(log.current_segment(), 2u);  // rolls resumed after the cut
    ASSERT_TRUE(log.PruneObsoleteSegments().ok());
    ASSERT_TRUE(log.Close().ok());
  }
  GroupCommitLog::ReplayInfo info;
  auto replayed = GroupCommitLog::Replay(Path(), &info);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(replayed->at(0), kInWindow + 1);
  EXPECT_EQ(ReplayedCommitTs(Path(), info.first_segment),
            Range(1, kInWindow + 1));
}

TEST_F(GroupCommitLogTest, PruneKeepsTheCutSegmentAfterARoll) {
  // A roll between the cut and the prune moves appends past the cut's
  // segment; pruning "all but the current segment" would delete the cut
  // and the commits logged after the rotation.
  const std::string blob(1 << 20, 'z');
  const GroupId g0[] = {0};
  constexpr Timestamp kCommits = 66;
  {
    GroupCommitLog log(SyncMode::kNone, 0);
    ASSERT_TRUE(log.Open(Path()).ok());
    ASSERT_TRUE(log.RecordCommit(g0, 1, 1, true, blob).ok());
    ASSERT_TRUE(log.RotateSegment().ok());
    ASSERT_TRUE(log.RecordCommit(g0, 1, 2, true, blob).ok());
    const std::pair<GroupId, Timestamp> cut[] = {{0, 1}};
    ASSERT_TRUE(log.WriteCheckpoint(cut, 1).ok());
    for (Timestamp cts = 3; cts <= kCommits; ++cts) {
      ASSERT_TRUE(log.RecordCommit(g0, 1, cts, true, blob).ok());
    }
    EXPECT_EQ(log.current_segment(), 2u);
    ASSERT_TRUE(log.PruneObsoleteSegments().ok());
    EXPECT_FALSE(fsutil::FileExists(Path()));  // the pre-checkpoint chain
    ASSERT_TRUE(log.Close().ok());
  }
  GroupCommitLog::ReplayInfo info;
  auto replayed = GroupCommitLog::Replay(Path(), &info);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.first_segment, 1u);
  EXPECT_EQ(ReplayedCommitTs(Path(), info.first_segment), Range(2, kCommits));
}

TEST_F(GroupCommitLogTest, FailedCheckpointLetsRollsResume) {
  const std::string blob(1 << 20, 'w');
  const GroupId g0[] = {0};
  GroupCommitLog log(SyncMode::kNone, 0);
  ASSERT_TRUE(log.Open(Path()).ok());
  ASSERT_TRUE(log.RotateSegment().ok());
  log.AbandonCheckpoint();  // e.g. an image write failed
  for (Timestamp cts = 1; cts <= 65; ++cts) {
    ASSERT_TRUE(log.RecordCommit(g0, 1, cts, true, blob).ok());
  }
  EXPECT_EQ(log.current_segment(), 2u);
  ASSERT_TRUE(log.Close().ok());
}

}  // namespace
}  // namespace streamsi
