// ADS_DO: the verified-update protocol (w1) and root bookkeeping.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace grub::ads
