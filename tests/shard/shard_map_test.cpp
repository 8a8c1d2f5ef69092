// ShardMap: deterministic range lookup and boundary semantics.
#include <gtest/gtest.h>

#include <stdexcept>

#include "grub/system.h"
#include "shard/shard_map.h"
#include "workload/trace.h"

namespace grub::shard {
namespace {

using workload::MakeKey;

TEST(ShardMap, DefaultIsSingleShard) {
  ShardMap map;
  EXPECT_EQ(map.Count(), 1u);
  EXPECT_EQ(map.ShardOf(ToBytes("")), 0u);
  EXPECT_EQ(map.ShardOf(ToBytes("anything")), 0u);
  EXPECT_EQ(map.ShardOf(Bytes(64, 0xff)), 0u);
  EXPECT_TRUE(map.LowerBoundOf(0).empty());
  EXPECT_TRUE(map.UpperBoundOf(0).empty());  // unbounded
}

TEST(ShardMap, ExplicitBoundariesHalfOpenRanges) {
  // Shard 0: [-inf, "g"), shard 1: ["g", "p"), shard 2: ["p", +inf).
  ShardMap map({ToBytes("g"), ToBytes("p")});
  EXPECT_EQ(map.Count(), 3u);
  EXPECT_EQ(map.ShardOf(ToBytes("a")), 0u);
  EXPECT_EQ(map.ShardOf(ToBytes("fzzz")), 0u);
  EXPECT_EQ(map.ShardOf(ToBytes("g")), 1u);  // boundary key: lower-inclusive
  EXPECT_EQ(map.ShardOf(ToBytes("gg")), 1u);
  EXPECT_EQ(map.ShardOf(ToBytes("ozzz")), 1u);
  EXPECT_EQ(map.ShardOf(ToBytes("p")), 2u);
  EXPECT_EQ(map.ShardOf(ToBytes("zzz")), 2u);
  EXPECT_EQ(map.LowerBoundOf(1), ToBytes("g"));
  EXPECT_EQ(map.UpperBoundOf(1), ToBytes("p"));
  EXPECT_EQ(map.UpperBoundOf(0), ToBytes("g"));
  EXPECT_TRUE(map.UpperBoundOf(2).empty());
}

TEST(ShardMap, RejectsUnsortedOrDuplicateBoundaries) {
  EXPECT_THROW(ShardMap({ToBytes("p"), ToBytes("g")}), std::invalid_argument);
  EXPECT_THROW(ShardMap({ToBytes("g"), ToBytes("g")}), std::invalid_argument);
}

TEST(ShardMap, DeterminismTwoCopiesAgreeEverywhere) {
  // The DO, SP and contract each hold their own copy; they must agree on
  // ShardOf for every key or proofs verify against the wrong root.
  const std::vector<Bytes> boundaries = {MakeKey(100), MakeKey(200),
                                         MakeKey(300)};
  ShardMap a(boundaries);
  ShardMap b(boundaries);
  EXPECT_EQ(a, b);
  for (uint64_t i = 0; i < 400; i += 7) {
    EXPECT_EQ(a.ShardOf(MakeKey(i)), b.ShardOf(MakeKey(i))) << i;
  }
}

TEST(ShardMap, UniformPartitionCoversPrefixSpace) {
  ShardMap map = ShardMap::Uniform(4);
  EXPECT_EQ(map.Count(), 4u);
  // High-entropy 8-byte prefixes spread across all four shards.
  EXPECT_EQ(map.ShardOf(Bytes{0x00, 0, 0, 0, 0, 0, 0, 0}), 0u);
  EXPECT_EQ(map.ShardOf(Bytes{0x40, 0, 0, 0, 0, 0, 0, 0}), 1u);
  EXPECT_EQ(map.ShardOf(Bytes{0x80, 0, 0, 0, 0, 0, 0, 0}), 2u);
  EXPECT_EQ(map.ShardOf(Bytes{0xc0, 0, 0, 0, 0, 0, 0, 0}), 3u);
  EXPECT_EQ(map.ShardOf(Bytes(8, 0xff)), 3u);
}

TEST(ShardMap, IndexedKeyBoundariesSplitMakeKeyKeyspace) {
  // Uniform() cannot split the ASCII "k%015llu" keyspace (all keys share the
  // same u64 prefix bucket); the MakeKey quantiles must.
  const uint64_t kKeys = 1000;
  ShardMap map(core::IndexedKeyBoundaries(kKeys, 4));
  ASSERT_EQ(map.Count(), 4u);
  std::vector<size_t> per_shard(4, 0);
  for (uint64_t i = 0; i < kKeys; ++i) per_shard[map.ShardOf(MakeKey(i))]++;
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(per_shard[s], kKeys / 4) << "shard " << s;
  }
}

}  // namespace
}  // namespace grub::shard
