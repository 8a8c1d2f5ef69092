// SP durability: the authenticated state survives an SP process restart,
// rebuilt from the embedded (persistent) KVStore.
#include <gtest/gtest.h>

#include <filesystem>

#include "ads/sp.h"
#include "ads/verify.h"
#include "workload/trace.h"

namespace grub::ads {
namespace {

namespace fs = std::filesystem;
using workload::MakeKey;

class SpRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("grub_sp_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(SpRecoveryTest, RootSurvivesRestart) {
  Hash256 root_before;
  {
    AdsSp sp(dir_);
    std::vector<FeedRecord> load;
    for (uint64_t i = 0; i < 16; ++i) {
      load.push_back({MakeKey(i), ToBytes("v" + std::to_string(i)),
                      i % 3 ? ReplState::kNR : ReplState::kR});
    }
    sp.BulkLoad(load);
    root_before = sp.Root();
  }  // SP "crashes"

  AdsSp sp(dir_);
  EXPECT_EQ(sp.RecordCount(), 16u);
  EXPECT_EQ(sp.Root(), root_before);
  // Recovered proofs verify against the pre-crash root (which is what the
  // chain still holds).
  for (uint64_t i = 0; i < 16; ++i) {
    auto proof = sp.Get(MakeKey(i));
    ASSERT_TRUE(proof.ok()) << i;
    EXPECT_TRUE(VerifyQuery(root_before, *proof)) << i;
  }
}

TEST_F(SpRecoveryTest, UpdatesAfterRecoveryKeepWorking) {
  {
    AdsSp sp(dir_);
    ASSERT_TRUE(
        sp.ApplyPutBatch({{MakeKey(1), ToBytes("one"), ReplState::kNR}}).ok());
  }
  AdsSp sp(dir_);
  ASSERT_TRUE(
      sp.ApplyPutBatch({{MakeKey(2), ToBytes("two"), ReplState::kNR}}).ok());
  ASSERT_TRUE(
      sp.ApplyPutBatch({{MakeKey(1), ToBytes("ONE"), ReplState::kR}}).ok());
  EXPECT_EQ(sp.Peek(MakeKey(1))->value, ToBytes("ONE"));
  EXPECT_TRUE(VerifyQuery(sp.Root(), *sp.Get(MakeKey(2))));
}

TEST_F(SpRecoveryTest, IncrementalBatchesSurviveRestart) {
  // Batches patch the tree in place (leaf writes, suffix splices) while the
  // KVStore only sees record puts; a reopened SP rebuilds from the store and
  // must land on the same root the incremental tree reached.
  Hash256 root_before;
  size_t capacity_before = 0;
  {
    AdsSp sp(dir_);
    std::vector<FeedRecord> load;
    for (uint64_t i = 10; i < 40; i += 2) {
      load.push_back({MakeKey(i), ToBytes("v"), ReplState::kNR});
    }
    sp.BulkLoad(load);
    // Overwrite-only, with a state-bit-only flip.
    ASSERT_TRUE(sp.ApplyPutBatch({{MakeKey(12), ToBytes("w"), ReplState::kNR},
                                  {MakeKey(20), ToBytes("v"), ReplState::kR}})
                    .ok());
    // Inserts below the first key and mid-array, plus an overwrite.
    ASSERT_TRUE(sp.ApplyPutBatch({{MakeKey(5), ToBytes("i"), ReplState::kNR},
                                  {MakeKey(21), ToBytes("i"), ReplState::kR},
                                  {MakeKey(38), ToBytes("o"), ReplState::kNR}})
                    .ok());
    root_before = sp.Root();
    capacity_before = sp.Capacity();
  }  // SP "crashes"

  AdsSp sp(dir_);
  EXPECT_EQ(sp.RecordCount(), 17u);
  EXPECT_EQ(sp.Capacity(), capacity_before);
  EXPECT_EQ(sp.Root(), root_before);
  EXPECT_EQ(sp.Peek(MakeKey(20))->state, ReplState::kR);
  EXPECT_TRUE(VerifyQuery(root_before, *sp.Get(MakeKey(21))));
}

TEST_F(SpRecoveryTest, DeletesSurviveRestart) {
  // The omission splices the tree's tail and deletes the key from the
  // store; the reopened SP rebuilds from the store and must land on the
  // same root.
  Hash256 root_before;
  {
    AdsSp sp(dir_);
    std::vector<FeedRecord> load;
    for (uint64_t i = 0; i < 4; ++i) {
      load.push_back({MakeKey(i), ToBytes("v"), ReplState::kNR});
    }
    sp.BulkLoad(load);
    sp.OmitForTesting(MakeKey(2));
    ASSERT_EQ(sp.RecordCount(), 3u);
    root_before = sp.Root();
  }
  AdsSp sp(dir_);
  EXPECT_EQ(sp.RecordCount(), 3u);
  EXPECT_EQ(sp.Root(), root_before);
  EXPECT_FALSE(sp.Get(MakeKey(2)).ok());
  auto absence = sp.ProveAbsent(MakeKey(2));
  ASSERT_TRUE(absence.ok());
  EXPECT_TRUE(VerifyAbsence(sp.Root(), MakeKey(2), *absence));
}

}  // namespace
}  // namespace grub::ads
