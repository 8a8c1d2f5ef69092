// ADS_DO: the verified-update protocol (w1) and root bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>

#include "ads/do.h"
#include "ads/verify.h"
#include "workload/trace.h"

namespace grub::ads {
namespace {

using workload::MakeKey;

FeedRecord Rec(uint64_t i, const std::string& value,
               ReplState state = ReplState::kNR) {
  return FeedRecord{MakeKey(i), ToBytes(value), state};
}

TEST(AdsDo, RootMatchesSpAfterVerifiedPuts) {
  AdsSp sp;
  AdsDo ads_do(ToBytes("k"));
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        ads_do.VerifiedBatchPut(sp, {Rec(i, "v" + std::to_string(i))}).ok())
        << i;
    ASSERT_EQ(ads_do.Root(), sp.Root()) << i;
  }
  EXPECT_EQ(ads_do.RecordCount(), 20u);
}

TEST(AdsDo, VerifiedOverwriteKeepsRootsAligned) {
  AdsSp sp;
  AdsDo ads_do(ToBytes("k"));
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(1, "old")}).ok());
  ASSERT_TRUE(
      ads_do.VerifiedBatchPut(sp, {Rec(1, "new", ReplState::kR)}).ok());
  EXPECT_EQ(ads_do.Root(), sp.Root());
  EXPECT_EQ(ads_do.RecordCount(), 1u);
  EXPECT_EQ(sp.Peek(MakeKey(1))->value, ToBytes("new"));
  EXPECT_EQ(sp.Peek(MakeKey(1))->state, ReplState::kR);
}

TEST(AdsDo, OutOfOrderVerifiedInsertsWork) {
  AdsSp sp;
  AdsDo ads_do(ToBytes("k"));
  for (uint64_t i : {9, 2, 7, 0, 5, 3, 8, 1, 6, 4}) {
    ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(i, "v")}).ok()) << i;
    ASSERT_EQ(ads_do.Root(), sp.Root()) << i;
  }
  // Every record provable against the shared root.
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(VerifyQuery(ads_do.Root(), *sp.Get(MakeKey(i)))) << i;
  }
}

TEST(AdsDo, SignedRootsCarryEpochFreshness) {
  AdsSp sp;
  AdsDo ads_do(ToBytes("signing-key"));
  ads_do.BulkLoad(sp, {Rec(1, "v")});
  Signature epoch5 = ads_do.SignRoot(5);
  MacVerifier verifier(ads_do.VerificationKey());
  EXPECT_TRUE(verifier.Verify(ads_do.Root(), epoch5, 5));
  EXPECT_FALSE(verifier.Verify(ads_do.Root(), epoch5, 6));  // stale epoch
}

TEST(AdsDo, MixedVerifiedAndBootstrapLoadsAgree) {
  // Bulk bootstrap then verified updates: the mirror stays consistent.
  AdsSp sp;
  AdsDo ads_do(ToBytes("k"));
  std::vector<FeedRecord> seed;
  for (uint64_t i = 0; i < 50; ++i) seed.push_back(Rec(i, "seed"));
  ads_do.BulkLoad(sp, seed);
  ASSERT_EQ(ads_do.Root(), sp.Root());
  for (uint64_t i = 0; i < 50; i += 7) {
    ASSERT_TRUE(
        ads_do.VerifiedBatchPut(sp, {Rec(i, "fresh", ReplState::kR)}).ok());
  }
  EXPECT_EQ(ads_do.Root(), sp.Root());
}

// --- the pre-check: SP proofs compared with the DO's mirror ---

// Records at keys 10, 20, ..., 10 * n.
std::vector<FeedRecord> Tens(size_t n) {
  std::vector<FeedRecord> records;
  for (uint64_t i = 1; i <= n; ++i) records.push_back(Rec(10 * i, "v"));
  return records;
}

// Expects `batch` to be refused as kIntegrityViolation with both roots left
// as they were.
void ExpectRefused(AdsDo& ads_do, AdsSp& sp,
                   const std::vector<FeedRecord>& batch) {
  const Hash256 do_root = ads_do.Root();
  const Hash256 sp_root = sp.Root();
  EXPECT_EQ(ads_do.VerifiedBatchPut(sp, batch).code(),
            StatusCode::kIntegrityViolation);
  EXPECT_EQ(ads_do.Root(), do_root);
  EXPECT_EQ(sp.Root(), sp_root);
}

TEST(AdsDo, PreCheckRejectsForkedSiblings) {
  // The SP forks one record, then serves the pre-proof for another key: the
  // record it returns is honest and its siblings are self-consistent (the
  // proof verifies against the SP's own forked root), but one sibling comes
  // from the forked subtree, so it differs from the mirror's node.
  for (bool overwrite_forked : {false, true}) {
    SCOPED_TRACE(overwrite_forked ? "overwrite the forked key"
                                  : "overwrite another key");
    AdsSp sp;
    AdsDo ads_do(ToBytes("k"));
    ads_do.BulkLoad(sp, Tens(8));
    sp.ForkForTesting(MakeKey(20), ToBytes("forged"));
    const uint64_t written = overwrite_forked ? 20 : 70;
    auto proof = sp.Get(MakeKey(written));
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(VerifyQuery(sp.Root(), *proof));
    EXPECT_FALSE(VerifyQuery(ads_do.Root(), *proof));
    ExpectRefused(ads_do, sp, {Rec(written, "new")});
  }
}

TEST(AdsDo, PreCheckRejectsForkedAppendWindow) {
  // An append's absence window is the last record plus the padding leaf
  // after it. Forking that record changes a window leaf; forking the first
  // record changes a complement node. Either proof verifies against the
  // SP's forked root, and neither matches the mirror.
  for (uint64_t forked : {70u, 10u}) {
    SCOPED_TRACE(forked);
    AdsSp sp;
    AdsDo ads_do(ToBytes("k"));
    ads_do.BulkLoad(sp, Tens(7));
    sp.ForkForTesting(MakeKey(forked), ToBytes("forged"));
    auto absence = sp.ProveAbsent(MakeKey(80));
    ASSERT_TRUE(absence.ok());
    EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(80), *absence));
    ExpectRefused(ads_do, sp, {Rec(80, "appended")});
  }
}

// An absence window [lo, lo + len) cut from the honest tree over `records`:
// self-consistent, so it verifies as a range against the honest root, but
// it is the window of some other position.
AbsenceProof CutWindow(const std::vector<FeedRecord>& records, size_t lo,
                       size_t len) {
  std::vector<Hash256> leaves;
  for (const auto& r : records) leaves.push_back(r.LeafHash());
  MerkleTree tree(leaves);
  AbsenceProof proof;
  proof.capacity = tree.Capacity();
  proof.lo = lo;
  for (size_t i = lo; i < std::min(lo + len, records.size()); ++i) {
    proof.boundary.push_back(records[i]);
  }
  proof.empty_tail = lo + len > records.size();
  proof.range = tree.ProveRange(lo, len);
  return proof;
}

struct WindowEdge {
  const char* name;
  size_t records;  // keys 10, 20, ...
  uint64_t key;    // the key the batch appends or inserts
};

// Names the case in test output; gtest would otherwise dump its bytes,
// address of `name` included.
void PrintTo(const WindowEdge& edge, std::ostream* os) { *os << edge.name; }

class AbsenceWindowTest : public ::testing::TestWithParam<WindowEdge> {};

TEST_P(AbsenceWindowTest, HonestPassesShiftedOrFlippedIsRefused) {
  const WindowEdge& edge = GetParam();
  const auto records = Tens(edge.records);
  {
    AdsSp sp;
    AdsDo ads_do(ToBytes("k"));
    ads_do.BulkLoad(sp, records);
    ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(edge.key, "new")}).ok());
    EXPECT_EQ(ads_do.Root(), sp.Root());
  }
  enum class Lie { kShift, kFlipTail };
  for (Lie lie : {Lie::kShift, Lie::kFlipTail}) {
    SCOPED_TRACE(lie == Lie::kShift ? "shifted window" : "flipped empty_tail");
    AdsSp sp;
    AdsDo ads_do(ToBytes("k"));
    ads_do.BulkLoad(sp, records);
    sp.TamperAbsenceProofsForTesting([&](AbsenceProof& proof) {
      if (lie == Lie::kFlipTail) {
        proof.empty_tail = !proof.empty_tail;
        return;
      }
      if (records.empty()) {
        proof.lo += 1;  // no record to cut a second window from
        return;
      }
      const size_t len = proof.boundary.size() + (proof.empty_tail ? 1 : 0);
      proof = CutWindow(records, proof.lo > 0 ? proof.lo - 1 : proof.lo + 1,
                        len);
    });
    ExpectRefused(ads_do, sp, {Rec(edge.key, "new")});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Edges, AbsenceWindowTest,
    ::testing::Values(WindowEdge{"EmptyStore", 0, 15},
                      WindowEdge{"BeforeFirst", 3, 5},
                      WindowEdge{"AfterLastWithPadding", 3, 35},
                      WindowEdge{"AfterLastOnFullTree", 4, 45},
                      WindowEdge{"BetweenTwoRecords", 3, 15}),
    [](const ::testing::TestParamInfo<WindowEdge>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace grub::ads
