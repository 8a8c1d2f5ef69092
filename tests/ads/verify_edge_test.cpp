// Structural edge cases of proof verification: the empty store, the
// single-leaf tree, and keys probing outside the stored range — the
// positions where window assembly in verify.cpp takes its boundary branches.
#include <gtest/gtest.h>

#include "ads/sp.h"
#include "ads/verify.h"
#include "workload/trace.h"

namespace grub::ads {
namespace {

using workload::MakeKey;

FeedRecord Rec(uint64_t i, const char* value) {
  return FeedRecord{MakeKey(i), ToBytes(value), ReplState::kNR};
}

// --- empty store ---

TEST(VerifyEdge, EmptyStoreHasNoMembersAndProvesEveryAbsence) {
  AdsSp sp;
  EXPECT_EQ(sp.RecordCount(), 0u);
  EXPECT_FALSE(sp.Get(MakeKey(1)).ok());

  // Absence of ANY key: the proof is the single padding leaf at index 0.
  auto absence = sp.ProveAbsent(MakeKey(1));
  ASSERT_TRUE(absence.ok());
  EXPECT_TRUE(absence->boundary.empty());
  EXPECT_TRUE(absence->empty_tail);
  EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(1), *absence));

  // The empty-store absence shape is pinned: lo must be 0 and the padding
  // leaf must be claimed, or verification rejects.
  AbsenceProof no_tail = *absence;
  no_tail.empty_tail = false;
  EXPECT_FALSE(VerifyAbsence(sp.Root(), MakeKey(1), no_tail));
}

TEST(VerifyEdge, EmptyStoreScanProvesEmptyGroup) {
  AdsSp sp;
  // A scan over the empty store: zero records, completeness still proven.
  auto scan = sp.Scan(MakeKey(0), MakeKey(100));
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_FALSE(scan->left_neighbor.has_value());
  EXPECT_FALSE(scan->right_neighbor.has_value());
  EXPECT_TRUE(VerifyScan(sp.Root(), MakeKey(0), MakeKey(100), *scan));
  // Unbounded empty scan too.
  auto unbounded = sp.Scan(Bytes{}, Bytes{});
  ASSERT_TRUE(unbounded.ok());
  EXPECT_TRUE(unbounded->records.empty());
  EXPECT_TRUE(VerifyScan(sp.Root(), Bytes{}, Bytes{}, *unbounded));
  // An empty-window claim (no leaves at all) never verifies.
  ScanProof empty_claim;
  empty_claim.capacity = sp.Capacity();
  EXPECT_FALSE(VerifyScan(sp.Root(), MakeKey(0), MakeKey(100), empty_claim));
}

// --- single-leaf tree ---

TEST(VerifyEdge, SingleLeafMembershipProof) {
  AdsSp sp;
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(5, "only")}).ok());
  EXPECT_EQ(sp.RecordCount(), 1u);
  auto proof = sp.Get(MakeKey(5));
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof->record.value, ToBytes("only"));
  EXPECT_TRUE(VerifyQuery(sp.Root(), *proof));
  // Tampering with the record breaks the (possibly sibling-free) path.
  QueryProof forged = *proof;
  forged.record.value = ToBytes("forged");
  EXPECT_FALSE(VerifyQuery(sp.Root(), forged));
}

TEST(VerifyEdge, SingleLeafAbsenceBothSides) {
  AdsSp sp;
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(5, "only")}).ok());
  // Below the only record: window starts at index 0.
  auto below = sp.ProveAbsent(MakeKey(3));
  ASSERT_TRUE(below.ok());
  EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(3), *below));
  // Above the only record: the padding-tail (or full-tree) branch.
  auto above = sp.ProveAbsent(MakeKey(9));
  ASSERT_TRUE(above.ok());
  EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(9), *above));
  // A proof for one probe must not verify for a key the store contains.
  EXPECT_FALSE(VerifyAbsence(sp.Root(), MakeKey(5), *below));
}

TEST(VerifyEdge, SingleLeafScans) {
  AdsSp sp;
  ASSERT_TRUE(sp.ApplyPutBatch({Rec(5, "only")}).ok());
  // Range containing the record.
  auto hit = sp.Scan(MakeKey(0), MakeKey(10));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->records.size(), 1u);
  EXPECT_TRUE(VerifyScan(sp.Root(), MakeKey(0), MakeKey(10), *hit));
  // Range entirely below and entirely above: empty but complete.
  auto below = sp.Scan(MakeKey(0), MakeKey(5));
  ASSERT_TRUE(below.ok());
  EXPECT_TRUE(below->records.empty());
  EXPECT_TRUE(VerifyScan(sp.Root(), MakeKey(0), MakeKey(5), *below));
  auto above = sp.Scan(MakeKey(6), MakeKey(10));
  ASSERT_TRUE(above.ok());
  EXPECT_TRUE(above->records.empty());
  EXPECT_TRUE(VerifyScan(sp.Root(), MakeKey(6), MakeKey(10), *above));
}

// --- out-of-range probes on a populated store ---

TEST(VerifyEdge, OutOfRangeAbsenceProofs) {
  AdsSp sp;
  sp.BulkLoad({Rec(10, "v"), Rec(20, "v"), Rec(30, "v")});
  // Below every record and above every record.
  for (uint64_t probe : {0ull, 9ull, 31ull, 999999ull}) {
    auto absence = sp.ProveAbsent(MakeKey(probe));
    ASSERT_TRUE(absence.ok()) << probe;
    EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(probe), *absence)) << probe;
  }
  // An out-of-range absence proof must not transplant to an in-range probe:
  // the below-first-record window cannot vouch for a key between records.
  auto below = sp.ProveAbsent(MakeKey(0));
  ASSERT_TRUE(below.ok());
  EXPECT_FALSE(VerifyAbsence(sp.Root(), MakeKey(15), *below));
  // Nor can it vouch for a stored key.
  EXPECT_FALSE(VerifyAbsence(sp.Root(), MakeKey(10), *below));
}

TEST(VerifyEdge, OutOfRangeScansAreEmptyButComplete) {
  AdsSp sp;
  sp.BulkLoad({Rec(10, "v"), Rec(20, "v"), Rec(30, "v")});
  // Entirely below the stored range: right neighbour proves completeness.
  auto below = sp.Scan(MakeKey(0), MakeKey(10));
  ASSERT_TRUE(below.ok());
  EXPECT_TRUE(below->records.empty());
  EXPECT_TRUE(VerifyScan(sp.Root(), MakeKey(0), MakeKey(10), *below));
  // Entirely above: left neighbour + tail prove completeness.
  auto above = sp.Scan(MakeKey(31), MakeKey(99));
  ASSERT_TRUE(above.ok());
  EXPECT_TRUE(above->records.empty());
  EXPECT_TRUE(VerifyScan(sp.Root(), MakeKey(31), MakeKey(99), *above));
  // Omission attack at the range edge: serving the below-range proof for a
  // range that actually contains records must fail (the right neighbour is
  // inside the claimed range).
  EXPECT_FALSE(VerifyScan(sp.Root(), MakeKey(0), MakeKey(11), *below));
}

TEST(VerifyEdge, ScanProofDoesNotTransplantAcrossRanges) {
  AdsSp sp;
  sp.BulkLoad({Rec(10, "v"), Rec(20, "v"), Rec(30, "v")});
  auto scan = sp.Scan(MakeKey(10), MakeKey(21));
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_TRUE(VerifyScan(sp.Root(), MakeKey(10), MakeKey(21), *scan));
  // Same proof, narrower claimed range: the extra record is now outside.
  EXPECT_FALSE(VerifyScan(sp.Root(), MakeKey(10), MakeKey(20), *scan));
  // Same proof, wider claimed range: the right neighbour (30) falls inside,
  // flagging the omission.
  EXPECT_FALSE(VerifyScan(sp.Root(), MakeKey(10), MakeKey(31), *scan));
}

}  // namespace
}  // namespace grub::ads
