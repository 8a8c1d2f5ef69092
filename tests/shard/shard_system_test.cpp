// End-to-end sharded deployments: a GrubSystem on a 4-shard forest serves
// the same reads/scans as the single-tree system, epoch updates report
// touched shards, and multi-feed tenancy isolates feeds while attributing
// the shared chain's Gas exactly.
#include <gtest/gtest.h>

#include <map>

#include "grub/multi_feed.h"
#include "grub/storage_manager.h"
#include "grub/system.h"
#include "shard/forest.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;
using workload::Operation;
using workload::Trace;

constexpr uint64_t kKeys = 64;

SystemOptions ShardedOptions(size_t shards) {
  SystemOptions options;
  options.ops_per_tx = 8;
  options.enable_telemetry = true;
  options.shards = shards;
  if (shards > 1) {
    options.shard_boundaries = IndexedKeyBoundaries(kKeys, shards);
  }
  return options;
}

std::vector<std::pair<Bytes, Bytes>> PreloadRecords(const char* tag) {
  std::vector<std::pair<Bytes, Bytes>> records;
  for (uint64_t i = 0; i < kKeys; ++i) {
    records.emplace_back(MakeKey(i), ToBytes(std::string(tag) + "-" +
                                             std::to_string(i)));
  }
  return records;
}

Trace MixedTrace() {
  Trace trace;
  for (uint64_t i = 0; i < kKeys; i += 3) {
    trace.push_back(Operation::Read(MakeKey(i)));
  }
  for (uint64_t i = 1; i < kKeys; i += 8) {
    trace.push_back(Operation::Write(MakeKey(i), ToBytes("w" +
                                                         std::to_string(i))));
  }
  // Scans crossing every shard boundary of the 4-way split.
  trace.push_back(Operation::Scan(MakeKey(12), 10));
  trace.push_back(Operation::Scan(MakeKey(40), 12));
  for (uint64_t i = 1; i < kKeys; i += 8) {
    trace.push_back(Operation::Read(MakeKey(i)));  // read back the writes
  }
  return trace;
}

TEST(ShardedSystem, DeliversSameValuesAsSingleTree) {
  GrubSystem single(ShardedOptions(1), MakeBL1());
  GrubSystem sharded(ShardedOptions(4), MakeBL1());
  ASSERT_EQ(sharded.Shards().Count(), 4u);
  single.Preload(PreloadRecords("v"));
  sharded.Preload(PreloadRecords("v"));

  const Trace trace = MixedTrace();
  single.Drive(trace);
  sharded.Drive(trace);

  // Every delivered (key, value) pair matches: the forest changes how proofs
  // are scoped and how updates land, never what the DU observes.
  EXPECT_EQ(sharded.Consumer().received(), single.Consumer().received());
  EXPECT_EQ(sharded.Consumer().values_received(),
            single.Consumer().values_received());
  EXPECT_GT(sharded.Consumer().values_received(), 0u);
}

TEST(ShardedSystem, EpochsReportTouchedShards) {
  GrubSystem system(ShardedOptions(4), MakeBL1());
  system.Preload(PreloadRecords("v"));

  // One write into shard 0 only.
  Trace narrow = {Operation::Write(MakeKey(2), ToBytes("x"))};
  auto epochs = system.Drive(narrow);
  ASSERT_FALSE(epochs.empty());
  EXPECT_EQ(epochs.back().touched_shards, 1u);

  // Writes into all four shards.
  Trace wide;
  for (uint64_t i = 0; i < kKeys; i += kKeys / 4) {
    wide.push_back(Operation::Write(MakeKey(i + 1), ToBytes("y")));
  }
  epochs = system.Drive(wide);
  ASSERT_FALSE(epochs.empty());
  EXPECT_EQ(epochs.back().touched_shards, 4u);
}

TEST(ShardedSystem, PerShardUpdateGasCoversInvolvedShardsOnly) {
  GrubSystem system(ShardedOptions(4), MakeBL1());
  system.Preload(PreloadRecords("v"));
  Trace narrow = {Operation::Write(MakeKey(2), ToBytes("x")),
                  Operation::Write(MakeKey(5), ToBytes("y"))};
  system.Drive(narrow);
  const auto& per_shard = system.Do().PerShardUpdateGas();
  ASSERT_EQ(per_shard.size(), 4u);
  EXPECT_GT(per_shard[0], 0u);  // both writes land in shard 0
  EXPECT_EQ(per_shard[1], 0u);
  EXPECT_EQ(per_shard[2], 0u);
  EXPECT_EQ(per_shard[3], 0u);
}

// One commitment on every shard count, the padded rollup of 3 shards
// included: the digest the contract stores, the DO's landed rollup, the SP
// forest's rollup and the contract's own metered recompute over the shard
// roots are one value after Preload and after every epoch close.
class CommitmentTest : public ::testing::TestWithParam<size_t> {
 protected:
  static void ExpectOneCommitment(GrubSystem& system) {
    shard::ShardedAdsSp& sp = system.ShardedSp();
    const auto& storage = system.Chain().StorageOf(system.ManagerAddress());
    std::vector<Hash256> shard_roots;
    for (size_t s = 0; s < sp.ShardCount(); ++s) {
      shard_roots.push_back(sp.ShardRoot(s));
      if (sp.ShardCount() > 1) {
        EXPECT_EQ(storage.Load(StorageManagerContract::ShardRootSlot(
                      static_cast<uint32_t>(s))),
                  shard_roots.back())
            << "shard " << s;
      }
    }
    const Hash256 on_chain = storage.Load(StorageManagerContract::RootSlot());
    EXPECT_EQ(on_chain, system.Do().Root());
    EXPECT_EQ(on_chain, sp.RootOfRoots());
    EXPECT_EQ(on_chain, shard::ComputeRootOfRootsMetered(shard_roots, nullptr));
  }
};

TEST_P(CommitmentTest, RootSlotDoAndSpAgreeAfterEveryEpoch) {
  const size_t shards = GetParam();
  GrubSystem system(ShardedOptions(shards), MakeBL1());
  ASSERT_EQ(system.Shards().Count(), shards);
  system.Preload(PreloadRecords("v"));
  {
    SCOPED_TRACE("after Preload");
    ExpectOneCommitment(system);
  }
  uint64_t preload_gas = 0;
  for (uint64_t g : system.Do().PerShardUpdateGas()) preload_gas += g;
  EXPECT_EQ(preload_gas, 0u);

  // Reads, writes into every shard, cross-shard scans, and a rewrite of
  // identical values (a touched shard whose root does not move).
  Trace trace = MixedTrace();
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t i = 0; i < kKeys; i += 5) {
      trace.push_back(Operation::Write(MakeKey(i), ToBytes("z")));
    }
  }
  size_t cursor = 0;
  uint64_t epochs = 0;
  bool more = true;
  while (more) {
    const uint64_t epoch = system.Do().CurrentEpoch();
    more = system.DriveStep(trace, cursor);
    if (!more) system.FinishDrive();
    if (system.Do().CurrentEpoch() == epoch) continue;
    epochs += 1;
    SCOPED_TRACE("after epoch " + std::to_string(epoch));
    ExpectOneCommitment(system);
  }
  EXPECT_GT(epochs, 2u);
}

INSTANTIATE_TEST_SUITE_P(Shards, CommitmentTest,
                         ::testing::Values(1, 3, 4, 16),
                         ::testing::PrintToStringParamName());

TEST(MultiFeed, FeedsAreIsolatedOnOneChain) {
  MultiFeedSystem system;
  SystemOptions oracle;
  oracle.ops_per_tx = 8;
  SystemOptions kv;
  kv.shards = 4;
  kv.shard_boundaries = IndexedKeyBoundaries(kKeys, 4);
  kv.ops_per_tx = 8;
  const size_t f0 = system.AddFeed("oracle", oracle, MakeBL1());
  const size_t f1 = system.AddFeed("kv", kv, MakeBL1());
  ASSERT_EQ(system.Shards(f0).Count(), 1u);
  ASSERT_EQ(system.Shards(f1).Count(), 4u);
  ASSERT_NE(system.ManagerAddress(f0), system.ManagerAddress(f1));

  // Same key NAMES, different per-feed values: any cross-feed leakage shows
  // up as the wrong value in a consumer's received() log.
  system.Preload(f0, PreloadRecords("oracle"));
  system.Preload(f1, PreloadRecords("kv"));
  system.ResetGasCounters();

  Trace reads;
  for (uint64_t i = 0; i < kKeys; i += 4) {
    reads.push_back(Operation::Read(MakeKey(i)));
  }
  system.DriveAll({reads, reads});

  auto expect_feed_values = [&](size_t feed, const std::string& tag) {
    const auto& received = system.Consumer(feed).received();
    ASSERT_EQ(received.size(), reads.size());
    std::map<Bytes, Bytes> by_key(received.begin(), received.end());
    for (const auto& op : reads) {
      auto it = by_key.find(op.key);
      ASSERT_NE(it, by_key.end());
      const std::string value(it->second.begin(), it->second.end());
      EXPECT_EQ(value.rfind(tag + "-", 0), 0u) << "feed got " << value;
    }
  };
  expect_feed_values(f0, "oracle");
  expect_feed_values(f1, "kv");
}

TEST(MultiFeed, GasAttributionIsExactAndExhaustive) {
  MultiFeedSystem system;
  SystemOptions a;
  a.ops_per_tx = 4;
  SystemOptions b;
  b.shards = 2;
  b.shard_boundaries = IndexedKeyBoundaries(kKeys, 2);
  b.ops_per_tx = 4;
  system.AddFeed("a", a, MakeBL1());
  system.AddFeed("b", b, MakeBL1());
  system.Preload(0, PreloadRecords("a"));
  system.Preload(1, PreloadRecords("b"));
  system.ResetGasCounters();

  Trace mixed;
  for (uint64_t i = 0; i < 16; ++i) {
    mixed.push_back(Operation::Read(MakeKey(i * 3)));
    mixed.push_back(Operation::Write(MakeKey(i * 2 + 1), ToBytes("w")));
  }
  system.DriveAll({mixed, mixed});

  const auto stats = system.Stats();
  ASSERT_EQ(stats.size(), 2u);
  uint64_t attributed = 0;
  for (const auto& s : stats) {
    EXPECT_GT(s.gas, 0u) << s.name;
    EXPECT_GT(s.ops, 0u) << s.name;
    EXPECT_GT(s.epochs, 0u) << s.name;
    attributed += s.gas;
  }
  // Every metered unit of Gas lands in exactly one feed's total: the two
  // per-feed sums reconstruct the shared chain's ledger exactly.
  EXPECT_EQ(attributed, system.Chain().TotalGasUsed());
  // The sharded feed's update Gas is metered per shard.
  EXPECT_EQ(stats[1].per_shard_update_gas.size(), 2u);
  EXPECT_GT(stats[1].per_shard_update_gas[0] +
                stats[1].per_shard_update_gas[1],
            0u);
}

}  // namespace
}  // namespace grub::core
