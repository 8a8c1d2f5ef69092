// ADS_SP: record maintenance, membership / absence / scan proofs, and their
// verification across every structural position.
#include <gtest/gtest.h>

#include "ads/sp.h"
#include "ads/verify.h"
#include "workload/trace.h"

namespace grub::ads {
namespace {

using workload::MakeKey;

FeedRecord Rec(uint64_t i, const char* value, ReplState state = ReplState::kNR) {
  return FeedRecord{MakeKey(i), ToBytes(value), state};
}

TEST(AdsSp, PutThenProvenGet) {
  AdsSp sp;
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(1, "one")}).ok());
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(2, "two")}).ok());
  auto proof = sp.Get(MakeKey(1));
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof->record.value, ToBytes("one"));
  EXPECT_TRUE(VerifyQuery(sp.Root(), *proof));
}

TEST(AdsSp, OverwriteUpdatesRootAndProof) {
  AdsSp sp;
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(1, "old")}).ok());
  const Hash256 old_root = sp.Root();
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(1, "new")}).ok());
  EXPECT_NE(sp.Root(), old_root);
  auto proof = sp.Get(MakeKey(1));
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof->record.value, ToBytes("new"));
  EXPECT_TRUE(VerifyQuery(sp.Root(), *proof));
  // The fresh proof must NOT verify against the stale root (freshness).
  EXPECT_FALSE(VerifyQuery(old_root, *proof));
}

TEST(AdsSp, StateFlipChangesRoot) {
  AdsSp sp;
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(1, "v", ReplState::kNR)}).ok());
  const Hash256 nr_root = sp.Root();
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(1, "v", ReplState::kR)}).ok());
  EXPECT_NE(sp.Root(), nr_root);  // the state bit is authenticated
}

TEST(AdsSp, OutOfOrderInsertsKeepKeySortedProofs) {
  AdsSp sp;
  // Insert in shuffled order, one batch each: forces the mid-array splice.
  for (uint64_t i : {5, 1, 9, 3, 7, 2, 8, 4, 6, 0}) {
    ASSERT_TRUE(sp.ApplyPutBatch({Rec(i, "v")}).ok());
  }
  for (uint64_t i = 0; i < 10; ++i) {
    auto proof = sp.Get(MakeKey(i));
    ASSERT_TRUE(proof.ok()) << i;
    EXPECT_TRUE(VerifyQuery(sp.Root(), *proof)) << i;
  }
}

TEST(AdsSp, DeleteRemovesAndReproves) {
  AdsSp sp;
  std::vector<FeedRecord> records;
  for (uint64_t i = 0; i < 5; ++i) records.push_back(Rec(i, "v"));
  sp.BulkLoad(records);
  sp.OmitForTesting(MakeKey(2));
  EXPECT_EQ(sp.RecordCount(), 4u);
  EXPECT_FALSE(sp.Get(MakeKey(2)).ok());
  auto absence = sp.ProveAbsent(MakeKey(2));
  ASSERT_TRUE(absence.ok());
  EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(2), *absence));
  // Remaining records still prove.
  for (uint64_t i : {0, 1, 3, 4}) {
    EXPECT_TRUE(VerifyQuery(sp.Root(), *sp.Get(MakeKey(i)))) << i;
  }
}

TEST(AdsSp, OmitSpliceMatchesFreshLoad) {
  // Omitting at every position, from sizes that keep the capacity (6 -> 5)
  // and that halve it (5 -> 4, 2 -> 1), lands on the tree a fresh load of
  // the surviving records builds.
  for (uint64_t n : {2u, 5u, 6u}) {
    for (uint64_t victim = 0; victim < n; ++victim) {
      SCOPED_TRACE(std::to_string(n) + " records, omit " +
                   std::to_string(victim));
      std::vector<FeedRecord> records, survivors;
      for (uint64_t i = 0; i < n; ++i) {
        records.push_back(Rec(i, ("v" + std::to_string(i)).c_str()));
        if (i != victim) survivors.push_back(records.back());
      }
      AdsSp sp;
      sp.BulkLoad(records);
      sp.OmitForTesting(MakeKey(victim));
      AdsSp fresh;
      fresh.BulkLoad(survivors);
      EXPECT_EQ(sp.Root(), fresh.Root());
      EXPECT_EQ(sp.Capacity(), fresh.Capacity());
    }
  }
}

TEST(AdsSp, OmitAcrossCapacityHalvingMatchesFreshTree) {
  // 2^k + 1 -> 2^k records: the omission's splice halves the capacity (the
  // levels shrink in place, no rebuild) and lands on the tree a fresh load
  // of the survivors builds, wherever the omitted record sat.
  const uint64_t n = (uint64_t{1} << 10) + 1;
  for (uint64_t victim : {uint64_t{0}, n / 2, n - 1}) {
    SCOPED_TRACE(victim);
    std::vector<FeedRecord> records, survivors;
    for (uint64_t i = 0; i < n; ++i) {
      records.push_back(Rec(i, "v"));
      if (i != victim) survivors.push_back(records.back());
    }
    AdsSp sp;
    sp.BulkLoad(records);
    ASSERT_EQ(sp.Capacity(), 2048u);
    sp.OmitForTesting(MakeKey(victim));
    AdsSp fresh;
    fresh.BulkLoad(survivors);
    EXPECT_EQ(sp.Capacity(), 1024u);
    EXPECT_EQ(sp.Root(), fresh.Root());
    for (uint64_t i : {uint64_t{1}, n / 2 + 1, n - 2}) {
      auto proof = sp.Get(MakeKey(i));
      ASSERT_TRUE(proof.ok());
      EXPECT_TRUE(VerifyQuery(fresh.Root(), *proof)) << i;
    }
  }
}

TEST(AdsSp, AbsenceProofsAtEveryPosition) {
  AdsSp sp;
  // Keys 10, 20, 30: probe below, between each pair, and above.
  sp.BulkLoad({Rec(10, "v"), Rec(20, "v"), Rec(30, "v")});
  for (uint64_t probe : {5, 15, 25, 35}) {
    auto absence = sp.ProveAbsent(MakeKey(probe));
    ASSERT_TRUE(absence.ok()) << probe;
    EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(probe), *absence)) << probe;
  }
}

TEST(AdsSp, AbsenceOnEmptyStore) {
  AdsSp sp;
  auto absence = sp.ProveAbsent(MakeKey(1));
  ASSERT_TRUE(absence.ok());
  EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(1), *absence));
}

TEST(AdsSp, AbsenceOnFullPowerOfTwoTree) {
  AdsSp sp;
  sp.BulkLoad({Rec(0, "v"), Rec(10, "v"), Rec(20, "v"), Rec(30, "v")});
  ASSERT_EQ(sp.Capacity(), 4u);  // tree exactly full: no padding leaf
  auto tail = sp.ProveAbsent(MakeKey(99));
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(99), *tail));
  auto middle = sp.ProveAbsent(MakeKey(15));
  ASSERT_TRUE(middle.ok());
  EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(15), *middle));
}

TEST(AdsSp, ProveAbsentRefusesExistingKey) {
  AdsSp sp;
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(1, "v")}).ok());
  EXPECT_FALSE(sp.ProveAbsent(MakeKey(1)).ok());
}

TEST(AdsSp, ScanProofsCoverAllWindows) {
  AdsSp sp;
  std::vector<FeedRecord> records;
  for (uint64_t i = 0; i < 10; ++i) records.push_back(Rec(i * 10, "v"));
  sp.BulkLoad(records);
  struct Case {
    uint64_t start, end;
    size_t expected;
  };
  for (const auto& c : std::vector<Case>{{0, 100, 10},
                                         {15, 45, 3},   // 20,30,40
                                         {20, 41, 3},   // inclusive bounds
                                         {0, 5, 1},     // only key 0
                                         {95, 200, 0},  // beyond the last
                                         {42, 48, 0}}) {
    auto scan = sp.Scan(MakeKey(c.start), MakeKey(c.end));
    ASSERT_TRUE(scan.ok()) << c.start << ".." << c.end;
    EXPECT_EQ(scan->records.size(), c.expected) << c.start << ".." << c.end;
    EXPECT_TRUE(
        VerifyScan(sp.Root(), MakeKey(c.start), MakeKey(c.end), *scan))
        << c.start << ".." << c.end;
  }
}

TEST(AdsSp, UnboundedScanVerifies) {
  AdsSp sp;
  std::vector<FeedRecord> records;
  for (uint64_t i = 0; i < 6; ++i) records.push_back(Rec(i, "v"));
  sp.BulkLoad(records);
  auto scan = sp.Scan(MakeKey(3), {});
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 3u);
  EXPECT_TRUE(VerifyScan(sp.Root(), MakeKey(3), {}, *scan));
}

TEST(AdsSp, ScanOnEmptyStoreVerifiesEmpty) {
  AdsSp sp;
  auto scan = sp.Scan(MakeKey(0), MakeKey(10));
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_TRUE(VerifyScan(sp.Root(), MakeKey(0), MakeKey(10), *scan));
}

TEST(AdsSp, EffectiveStateFollowsAdvisoryThenRecord) {
  AdsSp sp;
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(1, "v", ReplState::kNR)}).ok());
  EXPECT_EQ(sp.EffectiveState(MakeKey(1)), ReplState::kNR);
  sp.SetAdvisoryTier(MakeKey(1), tier::StorageTier::kStorage);
  EXPECT_EQ(sp.EffectiveState(MakeKey(1)), ReplState::kR);
  // The authenticated bit is still NR until the next verified put.
  EXPECT_EQ(sp.Peek(MakeKey(1))->state, ReplState::kNR);
}

TEST(AdsSp, ProofSizesGrowLogarithmically) {
  AdsSp sp;
  std::vector<FeedRecord> records;
  for (uint64_t i = 0; i < 1024; ++i) records.push_back(Rec(i, "v"));
  sp.BulkLoad(records);
  auto proof = sp.Get(MakeKey(512));
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof->path.siblings.size(), 10u);  // log2(1024)
}

}  // namespace
}  // namespace grub::ads
