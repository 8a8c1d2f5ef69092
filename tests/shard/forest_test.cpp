// Merkle forest: rollup identities, routed operations, touched-shard
// tracking, batch protocol divergence detection, cross-shard scans.
#include <gtest/gtest.h>

#include "ads/verify.h"
#include "shard/forest.h"
#include "telemetry/profile.h"
#include "workload/trace.h"

namespace grub::shard {
namespace {

using workload::MakeKey;

ads::FeedRecord Rec(uint64_t i, const char* value,
                    ads::ReplState state = ads::ReplState::kNR) {
  return ads::FeedRecord{MakeKey(i), ToBytes(value), state};
}

ShardMap FourWay(uint64_t keys = 100) {
  return ShardMap({MakeKey(keys / 4), MakeKey(keys / 2), MakeKey(3 * keys / 4)});
}

// --- rollup ---

TEST(RootOfRoots, SingleShardIsIdentity) {
  // The load-bearing identity: one shard adds NO hashing, so a single-shard
  // forest commits to exactly the legacy single-tree root.
  Hash256 root;
  root.bytes.fill(0x5a);
  EXPECT_EQ(ComputeRootOfRoots({root}), root);
}

TEST(RootOfRoots, MeteredAgreesWithUnmetered) {
  std::vector<Hash256> roots(5);
  for (size_t i = 0; i < roots.size(); ++i) roots[i].bytes.fill(uint8_t(i + 1));
  size_t hashes = 0, bytes = 0;
  const Hash256 metered = ComputeRootOfRootsMetered(roots, [&](size_t b) {
    hashes++;
    bytes += b;
  });
  EXPECT_EQ(metered, ComputeRootOfRoots(roots));
  // 5 leaves pad to 8: 4 + 2 + 1 inner nodes, 65 bytes each.
  EXPECT_EQ(hashes, 7u);
  EXPECT_EQ(bytes, 7u * 65u);
}

TEST(RootOfRoots, SensitiveToEveryLeafAndToOrder) {
  std::vector<Hash256> roots(4);
  for (size_t i = 0; i < roots.size(); ++i) roots[i].bytes.fill(uint8_t(i + 1));
  const Hash256 base = ComputeRootOfRoots(roots);
  for (size_t i = 0; i < roots.size(); ++i) {
    std::vector<Hash256> mutated = roots;
    mutated[i].bytes.fill(0xee);
    EXPECT_NE(ComputeRootOfRoots(mutated), base) << "leaf " << i;
  }
  std::vector<Hash256> swapped = roots;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(ComputeRootOfRoots(swapped), base);
}

TEST(RootOfRoots, LandedRollupMatchesMeteredRollup) {
  // The DO's incremental rollup of landed roots and the contract's metered
  // recompute agree at every step, including the padding leaf of 3 shards.
  for (size_t count : {1u, 3u, 4u, 16u}) {
    SCOPED_TRACE(std::to_string(count) + " shards");
    std::vector<Bytes> boundaries;
    for (size_t s = 1; s < count; ++s) boundaries.push_back(MakeKey(10 * s));
    ShardedAdsDo ads_do(ShardMap(boundaries), ToBytes("key"));
    std::vector<Hash256> landed(count);  // unset slots read as zero
    EXPECT_EQ(ads_do.RootOfRoots(), ComputeRootOfRootsMetered(landed, nullptr));
    for (size_t step = 0; step < 2 * count; ++step) {
      const size_t s = (7 * step + 3) % count;
      landed[s].bytes.fill(uint8_t(step + 1));
      ads_do.SetLanded(s, landed[s]);
      EXPECT_EQ(ads_do.LandedRoot(s), landed[s]);
      EXPECT_EQ(ads_do.RootOfRoots(),
                ComputeRootOfRootsMetered(landed, nullptr));
    }
  }
}

// --- forest vs single tree ---

TEST(Forest, SingleShardForestEqualsPlainTree) {
  ShardedAdsSp forest{ShardMap()};
  ads::AdsSp plain;
  ShardedAdsDo ads_do{ShardMap(), ToBytes("key")};
  for (uint64_t i : {7, 2, 9, 4}) {
    ASSERT_TRUE(ads_do.VerifiedBatchPut(forest, {Rec(i, "v")}).ok());
    ASSERT_TRUE(plain.ApplyPutBatch({Rec(i, "v")}).ok());
  }
  EXPECT_EQ(forest.RootOfRoots(), plain.Root());
  EXPECT_EQ(forest.ShardRoot(0), plain.Root());
  EXPECT_EQ(ads_do.ShardRoot(0), plain.Root());
  // Once it lands, the DO's one-leaf rollup is the shard root itself.
  ads_do.SetLanded(0, ads_do.ShardRoot(0));
  EXPECT_EQ(ads_do.RootOfRoots(), plain.Root());
}

TEST(Forest, RoutedOperationsLandInMappedShard) {
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  for (uint64_t i = 0; i < 100; i += 5) {
    ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(i, "v")}).ok());
  }
  EXPECT_EQ(sp.RecordCount(), 20u);
  EXPECT_EQ(ads_do.RecordCount(), 20u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(sp.Shard(s).RecordCount(), 5u) << "shard " << s;
    EXPECT_EQ(sp.ShardRoot(s), ads_do.ShardRoot(s)) << "shard " << s;
  }
  // Point proofs verify against the owning shard's root.
  auto proof = sp.Get(MakeKey(55));
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(ads::VerifyQuery(
      sp.ShardRoot(sp.Map().ShardOf(MakeKey(55))), *proof));
  // Absence routes too.
  auto absent = sp.ProveAbsent(MakeKey(56));
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(ads::VerifyAbsence(sp.ShardRoot(sp.Map().ShardOf(MakeKey(56))),
                                 MakeKey(56), *absent));
}

TEST(Forest, TouchedShardsTracksAndClears) {
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(10, "v")}).ok());   // shard 0
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(80, "v")}).ok());   // shard 3
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(12, "v2")}).ok());  // shard 0
  EXPECT_EQ(ads_do.TakeTouchedShards(), (std::vector<uint32_t>{0, 3}));
  EXPECT_TRUE(ads_do.TakeTouchedShards().empty());  // cleared
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(30, "v")}).ok());   // shard 1
  EXPECT_EQ(ads_do.TakeTouchedShards(), (std::vector<uint32_t>{1}));
}

TEST(Forest, BatchPutMatchesFreshLoad) {
  // A per-shard batch (in-place leaf writes for overwrites, a suffix splice
  // from the first insert) must land on the trees a fresh bulk load of the
  // final record set builds — same leaves, same capacity. Shard 1 of
  // FourWay() holds keys [25, 50).
  struct Case {
    const char* name;
    std::vector<ads::FeedRecord> preload;
    std::vector<ads::FeedRecord> batch;
  };
  std::vector<ads::FeedRecord> sparse;  // 30, 32, ..., 44: 8 leaves, full
  for (uint64_t i = 30; i < 46; i += 2) sparse.push_back(Rec(i, "old"));
  const std::vector<Case> cases = {
      {"insert-and-overwrite on an empty shard",
       {},
       {Rec(30, "a"), Rec(27, "b"), Rec(30, "c"), Rec(49, "d")}},
      {"overwrite-only", sparse,
       {Rec(44, "x"), Rec(30, "y"), Rec(36, "z"), Rec(30, "w")}},
      {"state-bit-only flips", sparse,
       {Rec(32, "old", ads::ReplState::kR), Rec(34, "old", ads::ReplState::kR),
        Rec(40, "old", ads::ReplState::kR)}},
      {"mixed insert and overwrite", sparse,
       {Rec(33, "i"), Rec(36, "o"), Rec(41, "i"), Rec(44, "o")}},
      {"insert below the shard's first key", sparse,
       {Rec(25, "lo"), Rec(40, "o")}},
      {"capacity doubling", sparse,
       {Rec(31, "i"), Rec(46, "i"), Rec(47, "i"), Rec(30, "o")}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ShardedAdsSp batch_sp(FourWay());
    ShardedAdsDo batch_do(FourWay(), ToBytes("key"));
    batch_do.BulkLoad(batch_sp, c.preload);
    ASSERT_TRUE(batch_do.VerifiedBatchPut(batch_sp, c.batch).ok());
    // Reference: the final record set (preload, then the batch; last write
    // per key wins) bulk-loaded into a fresh forest.
    std::vector<ads::FeedRecord> final_set = c.preload;
    final_set.insert(final_set.end(), c.batch.begin(), c.batch.end());
    ShardedAdsSp fresh_sp(FourWay());
    ShardedAdsDo fresh_do(FourWay(), ToBytes("key"));
    fresh_do.BulkLoad(fresh_sp, final_set);
    const uint32_t s = 1;
    EXPECT_EQ(batch_sp.ShardRoot(s), fresh_sp.ShardRoot(s));
    EXPECT_EQ(batch_do.ShardRoot(s), fresh_do.ShardRoot(s));
    EXPECT_EQ(batch_sp.ShardRoot(s), batch_do.ShardRoot(s));
    EXPECT_EQ(batch_sp.Shard(s).Capacity(), fresh_sp.Shard(s).Capacity());
    EXPECT_EQ(batch_sp.RootOfRoots(), fresh_sp.RootOfRoots());
    // Last write per key won, and every record still proves.
    for (const auto& r : c.batch) {
      auto proof = batch_sp.Get(r.key);
      ASSERT_TRUE(proof.ok());
      EXPECT_EQ(proof->record, *fresh_sp.Peek(r.key));
      EXPECT_TRUE(ads::VerifyQuery(batch_do.ShardRoot(s), *proof));
    }
  }
}

TEST(Forest, BatchPutDetectsSpDivergence) {
  // A fork anywhere in the shard's tree is caught, not only on the batch's
  // keys: the SP builds the batch keys' pre-proofs from its forked tree, so
  // they fail against the DO's pre-batch root — for an insert above the
  // forked key, an overwrite-only batch (the fork sits off every dirty
  // path), and an insert below it (the forked leaf would ride the spliced
  // tail). Nothing is applied on either side.
  for (uint64_t batch_key : {36u, 40u, 26u}) {
    SCOPED_TRACE(batch_key);
    ShardedAdsSp sp(FourWay());
    ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
    ads_do.BulkLoad(sp, {Rec(30, "honest"), Rec(35, "v"), Rec(40, "v")});
    const Hash256 do_root = ads_do.ShardRoot(1);
    sp.Shard(1).ForkForTesting(MakeKey(35), ToBytes("forged"));
    const Hash256 sp_root = sp.ShardRoot(1);
    EXPECT_EQ(ads_do.VerifiedBatchPut(sp, {Rec(batch_key, "new")}).code(),
              StatusCode::kIntegrityViolation);
    EXPECT_EQ(ads_do.ShardRoot(1), do_root);
    EXPECT_EQ(sp.ShardRoot(1), sp_root);
  }
}

TEST(Forest, BatchPutRejectsForkOrOmissionOfWrittenKey) {
  // The batch overwrites the very key the SP forked or dropped, so the
  // post-batch trees would agree again: only the per-key pre-proof against
  // the pre-batch root sees the attack. It runs on every shard count,
  // before either side mutates — shard 1 is rejected, and shard 2, which
  // the batch also writes, is never applied.
  enum class Attack { kFork, kOmit };
  for (Attack attack : {Attack::kFork, Attack::kOmit}) {
    SCOPED_TRACE(attack == Attack::kFork ? "fork" : "omit");
    ShardedAdsSp sp(FourWay());
    ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
    std::vector<ads::FeedRecord> records;
    for (uint64_t i = 0; i < 100; i += 5) records.push_back(Rec(i, "v"));
    ads_do.BulkLoad(sp, records);
    (void)ads_do.TakeTouchedShards();
    if (attack == Attack::kFork) {
      sp.Shard(1).ForkForTesting(MakeKey(35), ToBytes("forged"));
    } else {
      sp.Shard(1).OmitForTesting(MakeKey(35));
    }
    std::vector<Hash256> do_roots, sp_roots;
    for (size_t s = 0; s < sp.ShardCount(); ++s) {
      do_roots.push_back(ads_do.ShardRoot(s));
      sp_roots.push_back(sp.ShardRoot(s));
    }
    EXPECT_EQ(
        ads_do.VerifiedBatchPut(sp, {Rec(60, "new"), Rec(35, "honest")})
            .code(),
        StatusCode::kIntegrityViolation);
    for (size_t s = 0; s < sp.ShardCount(); ++s) {
      EXPECT_EQ(ads_do.ShardRoot(s), do_roots[s]) << "shard " << s;
      EXPECT_EQ(sp.ShardRoot(s), sp_roots[s]) << "shard " << s;
    }
    EXPECT_TRUE(ads_do.TakeTouchedShards().empty());
  }
}

TEST(Forest, TamperedRecordRejectedWhenServedAfterIncrementalBatch) {
  // Detection boundary: a stored value forged WITHOUT touching the tree is
  // invisible to batch root equality (the SP reuses its tree's leaf hashes
  // for records outside the batch) and to pre-proofs whose windows miss the
  // record, so the batch goes through — but the
  // served proof recomputes the leaf from the forged record and fails the
  // hardened verify path against the DO's root.
  for (uint64_t batch_key : {40u, 26u}) {  // overwrite-only; splice below
    SCOPED_TRACE(batch_key);
    ShardedAdsSp sp(FourWay());
    ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
    ads_do.BulkLoad(sp, {Rec(30, "honest"), Rec(35, "v"), Rec(40, "v")});
    sp.Shard(1).TamperValueForTesting(MakeKey(35), ToBytes("forged"));
    ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(batch_key, "new")}).ok());
    auto proof = sp.Get(MakeKey(35));
    ASSERT_TRUE(proof.ok());
    EXPECT_EQ(proof->record.value, ToBytes("forged"));
    EXPECT_EQ(ads::CheckQuery(ads_do.ShardRoot(1), *proof),
              ads::ProofReject::kRootMismatch);
  }
}

#if GRUB_TELEMETRY
TEST(Forest, IncrementalBatchesRebuildNoTree) {
  // After the bootstrap load, every batch touches dirty paths only — also
  // the one that doubles the shard's capacity, which resizes the tree in
  // place on both sides instead of rebuilding it.
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  std::vector<ads::FeedRecord> records;
  for (uint64_t i = 25; i < 37; ++i) records.push_back(Rec(i, "v"));  // 12
  ads_do.BulkLoad(sp, records);
  const auto rebuilds = [] {
    return telemetry::ProfileRegistry::Snapshot()[static_cast<size_t>(
        telemetry::ProbeSite::kMerkleRebuild)].count;
  };
  telemetry::ProfileRegistry::Reset();
  telemetry::ProfileRegistry::Enable(true);
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(30, "o"), Rec(26, "o")}).ok());
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(40, "i"), Rec(31, "o")}).ok());
  const uint64_t in_place = rebuilds();
  ASSERT_TRUE(ads_do.VerifiedBatchPut(
      sp, {Rec(41, "i"), Rec(42, "i"), Rec(43, "i"), Rec(44, "i")}).ok());
  const uint64_t doubled = rebuilds();
  telemetry::ProfileRegistry::Enable(false);
  EXPECT_EQ(in_place, 0u);
  EXPECT_EQ(doubled, 0u);  // 17 records: capacity 16 -> 32, DO + SP
  // Both sides hold the tree a fresh load of the final records builds (a
  // load keeps the last write per key).
  records.insert(records.end(),
                 {Rec(30, "o"), Rec(26, "o"), Rec(40, "i"), Rec(31, "o"),
                  Rec(41, "i"), Rec(42, "i"), Rec(43, "i"), Rec(44, "i")});
  ShardedAdsSp fresh_sp(FourWay());
  ShardedAdsDo fresh_do(FourWay(), ToBytes("key"));
  fresh_do.BulkLoad(fresh_sp, records);
  EXPECT_EQ(sp.Shard(1).Capacity(), 32u);
  for (size_t s = 0; s < sp.ShardCount(); ++s) {
    EXPECT_EQ(ads_do.ShardRoot(s), fresh_do.ShardRoot(s)) << "shard " << s;
    EXPECT_EQ(sp.ShardRoot(s), fresh_do.ShardRoot(s)) << "shard " << s;
  }
}
#endif

TEST(Forest, BulkLoadEqualsIncrementalLoad) {
  ShardedAdsSp bulk_sp(FourWay());
  ShardedAdsDo bulk_do(FourWay(), ToBytes("key"));
  ShardedAdsSp seq_sp(FourWay());
  ShardedAdsDo seq_do(FourWay(), ToBytes("key"));
  std::vector<ads::FeedRecord> records;
  for (uint64_t i = 0; i < 100; i += 3) records.push_back(Rec(i, "v"));
  bulk_do.BulkLoad(bulk_sp, records);
  for (const auto& r : records) {
    ASSERT_TRUE(seq_do.VerifiedBatchPut(seq_sp, {r}).ok());
  }
  EXPECT_EQ(bulk_sp.RootOfRoots(), seq_sp.RootOfRoots());
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(bulk_do.ShardRoot(s), seq_do.ShardRoot(s)) << "shard " << s;
  }
  // Bulk load touches every shard that received records.
  EXPECT_EQ(bulk_do.TakeTouchedShards(),
            (std::vector<uint32_t>{0, 1, 2, 3}));
}

// --- cross-shard scans ---

TEST(ForestScan, SingleShardScanIsOnePart) {
  ShardedAdsSp sp{ShardMap()};
  ShardedAdsDo ads_do{ShardMap(), ToBytes("key")};
  std::vector<ads::FeedRecord> records;
  for (uint64_t i = 0; i < 10; ++i) records.push_back(Rec(i, "v"));
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, records).ok());
  auto parts = sp.ScanSharded(MakeKey(2), MakeKey(7));
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 1u);
  EXPECT_EQ((*parts)[0].shard, 0u);
  EXPECT_EQ((*parts)[0].proof.records.size(), 5u);
  EXPECT_TRUE(ads::VerifyScan(sp.ShardRoot(0), MakeKey(2), MakeKey(7),
                              (*parts)[0].proof));
}

TEST(ForestScan, CrossShardScanSplitsAtBoundaries) {
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  std::vector<ads::FeedRecord> records;
  for (uint64_t i = 0; i < 100; ++i) records.push_back(Rec(i, "v"));
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, records).ok());
  // [20, 80) covers shards 0..3: each part scoped to its shard, each proof
  // complete against that shard's root, records totaling the full range.
  auto parts = sp.ScanSharded(MakeKey(20), MakeKey(80));
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 4u);
  size_t total = 0;
  uint64_t expect_next = 20;
  for (const auto& part : *parts) {
    EXPECT_TRUE(ads::VerifyScan(sp.ShardRoot(part.shard), part.start, part.end,
                                part.proof))
        << "shard " << part.shard;
    for (const auto& rec : part.proof.records) {
      EXPECT_EQ(rec.key, MakeKey(expect_next++));
    }
    total += part.proof.records.size();
  }
  EXPECT_EQ(total, 60u);
  EXPECT_EQ(expect_next, 80u);
  // Adjacent parts tile the range exactly: part[i].end == part[i+1].start.
  for (size_t i = 0; i + 1 < parts->size(); ++i) {
    EXPECT_EQ((*parts)[i].end, (*parts)[i + 1].start);
  }
  EXPECT_EQ((*parts)[0].start, MakeKey(20));
  EXPECT_EQ((*parts)[3].end, MakeKey(80));
}

TEST(ForestScan, EmptySubrangePartsProveEmptiness) {
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  // Records only in shards 0 and 3; the middle shards are empty.
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {Rec(5, "v"), Rec(90, "v")}).ok());
  auto parts = sp.ScanSharded(MakeKey(0), Bytes{});  // unbounded
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 4u);
  for (const auto& part : *parts) {
    EXPECT_TRUE(ads::VerifyScan(sp.ShardRoot(part.shard), part.start, part.end,
                                part.proof))
        << "shard " << part.shard;
  }
  EXPECT_EQ((*parts)[1].proof.records.size(), 0u);
  EXPECT_EQ((*parts)[2].proof.records.size(), 0u);
  EXPECT_TRUE((*parts)[3].end.empty());  // last part stays unbounded
}

}  // namespace
}  // namespace grub::shard
