// Merkle tree: structural correctness, incremental-update consistency, and
// adversarial proof manipulation. These invariants carry the whole ADS.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/merkle.h"
#include "telemetry/profile.h"

namespace grub {
namespace {

std::vector<Hash256> MakeLeaves(size_t n, uint64_t salt = 0) {
  std::vector<Hash256> leaves(n);
  for (size_t i = 0; i < n; ++i) {
    leaves[i] = Hash256::FromU64(i * 1000003 + salt + 1);
  }
  return leaves;
}

TEST(Merkle, EmptyTreeHasZeroRoot) {
  MerkleTree tree;
  EXPECT_EQ(tree.LeafCount(), 0u);
  EXPECT_EQ(tree.Capacity(), 1u);
  EXPECT_TRUE(tree.Root().IsZero());
}

TEST(Merkle, SingleLeafRootIsLeaf) {
  auto leaves = MakeLeaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.Root(), leaves[0]);
}

TEST(Merkle, RootIsDeterministic) {
  MerkleTree a(MakeLeaves(13)), b(MakeLeaves(13));
  EXPECT_EQ(a.Root(), b.Root());
  MerkleTree c(MakeLeaves(13, /*salt=*/7));
  EXPECT_NE(a.Root(), c.Root());
}

TEST(Merkle, RootDependsOnLeafOrder) {
  auto leaves = MakeLeaves(4);
  MerkleTree a(leaves);
  std::swap(leaves[0], leaves[3]);
  MerkleTree b(leaves);
  EXPECT_NE(a.Root(), b.Root());
}

TEST(Merkle, DomainSeparationLeafVsNode) {
  // H_leaf(x||y) must differ from H_node(x,y): a 64-byte "record" whose
  // bytes equal two child hashes cannot stand in for their parent.
  Hash256 left = Hash256::FromU64(1), right = Hash256::FromU64(2);
  Bytes concat = Concat({left.Span(), right.Span()});
  EXPECT_NE(MerkleTree::HashLeafData(concat),
            MerkleTree::HashNode(left, right));
}

class MerkleProofTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleProofTest, EveryLeafProves) {
  const size_t n = GetParam();
  auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  const Hash256 root = tree.Root();
  for (size_t i = 0; i < n; ++i) {
    auto proof = tree.ProveLeaf(i);
    EXPECT_TRUE(
        MerkleTree::VerifyLeaf(root, leaves[i], i, tree.Capacity(), proof))
        << "leaf " << i << " of " << n;
    // The same proof must fail for any other index.
    const size_t other = (i + 1) % tree.Capacity();
    if (other != i) {
      EXPECT_FALSE(MerkleTree::VerifyLeaf(root, leaves[i], other,
                                          tree.Capacity(), proof));
    }
  }
}

TEST_P(MerkleProofTest, AllRangesVerify) {
  const size_t n = GetParam();
  auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  const Hash256 root = tree.Root();
  const size_t capacity = tree.Capacity();

  for (size_t lo = 0; lo < n; ++lo) {
    for (size_t count = 0; count <= n - lo; ++count) {
      auto proof = tree.ProveRange(lo, count);
      std::span<const Hash256> range(leaves.data() + lo, count);
      EXPECT_TRUE(MerkleTree::VerifyRange(root, capacity, lo, range, proof))
          << "range [" << lo << ", " << lo + count << ") of " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           17, 33));

TEST(Merkle, SetLeafMatchesRebuild) {
  auto leaves = MakeLeaves(11);
  MerkleTree incremental(leaves);
  Rng rng(3);
  for (int step = 0; step < 50; ++step) {
    const size_t i = rng.NextBounded(leaves.size());
    leaves[i] = Hash256::FromU64(rng.NextU64());
    incremental.SetLeaf(i, leaves[i]);
    MerkleTree rebuilt(leaves);
    ASSERT_EQ(incremental.Root(), rebuilt.Root()) << "step " << step;
  }
}

// --- batched updates: SetLeaves / ReplaceSuffix ---

// Holds `tree` to the tree a fresh MerkleTree(leaves) builds: leaf count,
// capacity, root, and the audit path of every slot up to capacity — those
// paths together cover every node of every level, padding included.
void ExpectSameAsFresh(const MerkleTree& tree,
                       const std::vector<Hash256>& leaves) {
  MerkleTree fresh(leaves);
  ASSERT_EQ(tree.LeafCount(), fresh.LeafCount());
  ASSERT_EQ(tree.Capacity(), fresh.Capacity());
  ASSERT_EQ(tree.Root(), fresh.Root());
  for (size_t i = 0; i < fresh.Capacity(); ++i) {
    ASSERT_EQ(tree.ProveLeaf(i), fresh.ProveLeaf(i)) << "slot " << i;
  }
}

std::vector<std::pair<size_t, Hash256>> RandomUpdates(Rng& rng, size_t n) {
  std::vector<std::pair<size_t, Hash256>> updates;
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBounded(3) == 0) {
      updates.emplace_back(i, Hash256::FromU64(rng.NextU64()));
    }
  }
  return updates;
}

TEST(MerkleBatch, SetLeavesMatchesFreshTree) {
  Rng rng(41);
  for (size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33}) {
    auto leaves = MakeLeaves(n);
    MerkleTree tree(leaves);
    for (int step = 0; step < 20; ++step) {
      const auto updates = RandomUpdates(rng, n);
      for (const auto& [i, h] : updates) leaves[i] = h;
      tree.SetLeaves(updates);
      ASSERT_NO_FATAL_FAILURE(ExpectSameAsFresh(tree, leaves))
          << "n " << n << " step " << step;
    }
  }
}

TEST(MerkleBatch, SetLeavesTouchingBothChildrenOfOneParent) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  // Leaves 2 and 3 share a parent; 4 and 5 share another; all four share
  // the root path above level 2.
  const std::vector<std::pair<size_t, Hash256>> updates = {
      {2, Hash256::FromU64(90)}, {3, Hash256::FromU64(91)},
      {4, Hash256::FromU64(92)}, {5, Hash256::FromU64(93)}};
  for (const auto& [i, h] : updates) leaves[i] = h;
  tree.SetLeaves(updates);
  ExpectSameAsFresh(tree, leaves);
}

TEST(MerkleBatch, EmptyTreeAndSingleLeaf) {
  MerkleTree tree;
  tree.SetLeaves({});
  tree.ReplaceSuffix(0, {});
  ExpectSameAsFresh(tree, {});

  std::vector<Hash256> leaves = MakeLeaves(1);
  tree.ReplaceSuffix(0, leaves);
  ExpectSameAsFresh(tree, leaves);

  leaves[0] = Hash256::FromU64(77);
  const std::pair<size_t, Hash256> update{0, leaves[0]};
  tree.SetLeaves({&update, 1});
  ExpectSameAsFresh(tree, leaves);

  tree.ReplaceSuffix(0, {});  // back to empty
  ExpectSameAsFresh(tree, {});
}

TEST(MerkleBatch, ReplaceSuffixAcrossCapacityBoundaries) {
  // n = 2^k grows to 2^k + 1 (capacity doubles) and shrinks back (capacity
  // halves); n = 2^k - 1 grows to 2^k (capacity kept), from every splice
  // position.
  for (size_t k = 0; k <= 5; ++k) {
    const size_t full = size_t{1} << k;
    for (size_t n : {full - 1, full, full + 1}) {
      if (n == 0) continue;
      for (size_t first = 0; first <= n; ++first) {
        auto leaves = MakeLeaves(n);
        MerkleTree tree(leaves);
        // Insert one leaf at `first`.
        std::vector<Hash256> suffix(leaves.begin() + static_cast<long>(first),
                                    leaves.end());
        suffix.insert(suffix.begin(), Hash256::FromU64(500 + first));
        leaves.insert(leaves.begin() + static_cast<long>(first), suffix[0]);
        tree.ReplaceSuffix(first, suffix);
        ASSERT_NO_FATAL_FAILURE(ExpectSameAsFresh(tree, leaves))
            << "grow n " << n << " first " << first;
        // And drop it again.
        suffix.erase(suffix.begin());
        leaves.erase(leaves.begin() + static_cast<long>(first));
        tree.ReplaceSuffix(first, suffix);
        ASSERT_NO_FATAL_FAILURE(ExpectSameAsFresh(tree, leaves))
            << "shrink n " << n << " first " << first;
      }
    }
  }
}

TEST(MerkleBatch, ReplaceSuffixSpliceAtIndexZero) {
  auto leaves = MakeLeaves(12);
  MerkleTree tree(leaves);
  std::vector<Hash256> suffix = {Hash256::FromU64(1), Hash256::FromU64(2)};
  suffix.insert(suffix.end(), leaves.begin(), leaves.end());
  tree.ReplaceSuffix(0, suffix);  // 14 leaves: capacity 16 kept
  ExpectSameAsFresh(tree, suffix);
}

TEST(MerkleBatch, RandomEditScriptsMatchFreshTree) {
  // Random scripts mixing overwrite batches with sorted-insert splices (and
  // the odd deletion), growing from empty through several doublings.
  Rng rng(2024);
  for (int script = 0; script < 20; ++script) {
    std::vector<Hash256> leaves;
    MerkleTree tree;
    for (int step = 0; step < 30; ++step) {
      if (!leaves.empty() && rng.NextBounded(2) == 0) {
        const auto updates = RandomUpdates(rng, leaves.size());
        for (const auto& [i, h] : updates) leaves[i] = h;
        tree.SetLeaves(updates);
      } else {
        const size_t first = rng.NextBounded(leaves.size() + 1);
        std::vector<Hash256> suffix(
            leaves.begin() + static_cast<long>(first), leaves.end());
        const size_t inserts = rng.NextBounded(4);
        for (size_t j = 0; j < inserts; ++j) {
          const size_t at = rng.NextBounded(suffix.size() + 1);
          suffix.insert(suffix.begin() + static_cast<long>(at),
                        Hash256::FromU64(rng.NextU64()));
        }
        if (!suffix.empty() && rng.NextBounded(5) == 0) {
          suffix.erase(suffix.begin() +
                       static_cast<long>(rng.NextBounded(suffix.size())));
        }
        leaves.resize(first);
        leaves.insert(leaves.end(), suffix.begin(), suffix.end());
        tree.ReplaceSuffix(first, suffix);
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSameAsFresh(tree, leaves))
          << "script " << script << " step " << step;
    }
  }
}

TEST(MerkleBatch, BadIndicesThrowWithoutWriting) {
  auto leaves = MakeLeaves(6);
  MerkleTree tree(leaves);
  const Hash256 x = Hash256::FromU64(999);
  using Updates = std::vector<std::pair<size_t, Hash256>>;
  EXPECT_THROW(tree.SetLeaves(Updates{{3, x}, {1, x}}), std::out_of_range);
  EXPECT_THROW(tree.SetLeaves(Updates{{2, x}, {2, x}}), std::out_of_range);
  EXPECT_THROW(tree.SetLeaves(Updates{{1, x}, {6, x}}), std::out_of_range);
  EXPECT_THROW(tree.ReplaceSuffix(7, {}), std::out_of_range);
  // The valid leading pairs of a rejected batch were not applied.
  ExpectSameAsFresh(tree, leaves);
}

TEST_P(MerkleProofTest, MatchesOnlyItsOwnProofs) {
  // MatchesLeafProof / MatchesRangeProof accept exactly what ProveLeaf /
  // ProveRange build, and reject a tampered, truncated or padded proof and
  // one from a tree with a single other leaf.
  const size_t n = GetParam();
  auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  auto other_leaves = leaves;
  other_leaves[n / 2] = Hash256::FromU64(424242);
  MerkleTree other(other_leaves);
  for (size_t i = 0; i < n; ++i) {
    auto path = tree.ProveLeaf(i);
    EXPECT_TRUE(tree.MatchesLeafProof(i, path)) << i;
    if (!path.siblings.empty()) {
      auto tampered = path;
      tampered.siblings.back().bytes[0] ^= 1;
      EXPECT_FALSE(tree.MatchesLeafProof(i, tampered)) << i;
      tampered = path;
      tampered.siblings.pop_back();
      EXPECT_FALSE(tree.MatchesLeafProof(i, tampered)) << i;
    }
    auto padded = path;
    padded.siblings.push_back(Hash256{});
    EXPECT_FALSE(tree.MatchesLeafProof(i, padded)) << i;
    // Every other leaf's path has a sibling over the changed leaf.
    if (i != n / 2) {
      EXPECT_FALSE(tree.MatchesLeafProof(i, other.ProveLeaf(i))) << i;
    }
  }
  for (size_t lo = 0; lo < n; ++lo) {
    for (size_t count = 0; count <= n - lo; ++count) {
      auto range = tree.ProveRange(lo, count);
      EXPECT_TRUE(tree.MatchesRangeProof(lo, count, range))
          << "[" << lo << ", " << lo + count << ")";
      for (size_t j = 0; j < range.complement.size(); ++j) {
        auto tampered = range;
        tampered.complement[j].bytes[31] ^= 0x80;
        EXPECT_FALSE(tree.MatchesRangeProof(lo, count, tampered));
      }
      auto padded = range;
      padded.complement.push_back(Hash256{});
      EXPECT_FALSE(tree.MatchesRangeProof(lo, count, padded));
      // The complement misses the changed leaf only when the range holds it.
      const bool holds_change = lo <= n / 2 && n / 2 < lo + count;
      EXPECT_EQ(tree.MatchesRangeProof(lo, count, other.ProveRange(lo, count)),
                holds_change)
          << "[" << lo << ", " << lo + count << ")";
    }
  }
  EXPECT_FALSE(tree.MatchesRangeProof(tree.Capacity(), 1, {}));
}

#if GRUB_TELEMETRY
TEST(MerkleBatch, CapacityPreservingBatchesNeverRebuild) {
  auto leaves = MakeLeaves(10);
  MerkleTree tree(leaves);
  telemetry::ProfileRegistry::Reset();
  telemetry::ProfileRegistry::Enable(true);
  const std::vector<std::pair<size_t, Hash256>> updates = {
      {0, Hash256::FromU64(1)}, {9, Hash256::FromU64(2)}};
  tree.SetLeaves(updates);
  std::vector<Hash256> suffix(leaves.begin() + 4, leaves.end());
  suffix.insert(suffix.begin(), Hash256::FromU64(3));
  tree.ReplaceSuffix(4, suffix);  // 11 leaves: capacity 16 kept
  // Dropping leaf 4 shifts the tail down one (an SP omission's splice):
  // 11 -> 10 leaves, capacity 16 kept.
  const std::vector<Hash256> shrunk(suffix.begin() + 1, suffix.end());
  tree.ReplaceSuffix(4, shrunk);
  const Hash256 shrunk_root = tree.Root();
  const auto kept = telemetry::ProfileRegistry::Snapshot();
  suffix.insert(suffix.end(), 6, Hash256::FromU64(4));
  tree.ReplaceSuffix(4, suffix);  // 17 leaves: capacity doubles
  const auto grown = telemetry::ProfileRegistry::Snapshot();
  telemetry::ProfileRegistry::Enable(false);
  const auto rebuild =
      static_cast<size_t>(telemetry::ProbeSite::kMerkleRebuild);
  EXPECT_EQ(kept[rebuild].count, 0u);
  // A doubling resizes the levels in place: no rebuild either.
  EXPECT_EQ(grown[rebuild].count, 0u);
  std::vector<Hash256> grown_leaves(leaves.begin(), leaves.begin() + 4);
  grown_leaves[0] = Hash256::FromU64(1);
  grown_leaves.insert(grown_leaves.end(), suffix.begin(), suffix.end());
  ExpectSameAsFresh(tree, grown_leaves);
  std::vector<Hash256> expected(leaves.begin(), leaves.begin() + 4);
  expected[0] = Hash256::FromU64(1);
  expected.insert(expected.end(), shrunk.begin(), shrunk.end());
  EXPECT_EQ(shrunk_root, MerkleTree(expected).Root());
}

TEST(MerkleBatch, AppendToFullTreeHashesOnePath) {
  // Appending one leaf to a full 2^k tree doubles the capacity. The old tree
  // becomes the left half unchanged and the new right half is padding plus
  // the new leaf, so exactly the k + 1 nodes on the new leaf's path are
  // hashed, two SHA-256 compressions each. A rebuild hashed all
  // 2^(k+1) - 1 nodes.
  {
    // The per-level padding hashes are computed once per process, by the
    // first resize; pay for them here, outside the count.
    MerkleTree warm(MakeLeaves(1));
    const Hash256 leaf = Hash256::FromU64(7);
    warm.ReplaceSuffix(1, {&leaf, 1});
  }
  const auto count = [](telemetry::ProbeSite site) {
    return telemetry::ProfileRegistry::Snapshot()[static_cast<size_t>(site)]
        .count;
  };
  for (size_t k : {10u, 16u}) {
    SCOPED_TRACE(k);
    auto leaves = MakeLeaves(size_t{1} << k);
    MerkleTree tree(leaves);
    const Hash256 extra = Hash256::FromU64(99);
    telemetry::ProfileRegistry::Reset();
    telemetry::ProfileRegistry::Enable(true);
    tree.ReplaceSuffix(leaves.size(), {&extra, 1});
    const uint64_t blocks = count(telemetry::ProbeSite::kSha256Block);
    const uint64_t rebuilds = count(telemetry::ProbeSite::kMerkleRebuild);
    telemetry::ProfileRegistry::Enable(false);
    EXPECT_EQ(blocks, 2 * (k + 1));
    EXPECT_EQ(rebuilds, 0u);
    leaves.push_back(extra);
    EXPECT_EQ(tree.Capacity(), size_t{2} << k);
    EXPECT_EQ(tree.Root(), MerkleTree(leaves).Root());
  }
}
#endif

TEST(Merkle, TamperedLeafFailsVerification) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaf(3);
  Hash256 forged = leaves[3];
  forged.bytes[0] ^= 1;
  EXPECT_FALSE(
      MerkleTree::VerifyLeaf(tree.Root(), forged, 3, tree.Capacity(), proof));
}

TEST(Merkle, TamperedSiblingFailsVerification) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaf(3);
  proof.siblings[1].bytes[5] ^= 0x80;
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3,
                                      tree.Capacity(), proof));
}

TEST(Merkle, WrongDepthProofRejected) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaf(3);
  auto truncated = proof;
  truncated.siblings.pop_back();
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3,
                                      tree.Capacity(), truncated));
  auto extended = proof;
  extended.siblings.push_back(Hash256::FromU64(9));
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3,
                                      tree.Capacity(), extended));
}

TEST(Merkle, WrongCapacityRejected) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaf(3);
  // A root over capacity 8 cannot verify under claimed capacity 16 or 4.
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3, 16, proof));
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3, 4, proof));
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3, 7, proof));
}

TEST(Merkle, RangeProofRejectsOmission) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveRange(2, 3);
  // Omit one in-range leaf.
  std::vector<Hash256> missing = {leaves[2], leaves[4]};
  EXPECT_FALSE(
      MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 2, missing, proof));
}

TEST(Merkle, RangeProofRejectsInjection) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveRange(2, 2);
  std::vector<Hash256> extra = {leaves[2], leaves[3], Hash256::FromU64(99)};
  EXPECT_FALSE(
      MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 2, extra, proof));
}

TEST(Merkle, RangeProofRejectsSubstitution) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveRange(2, 2);
  std::vector<Hash256> swapped = {leaves[3], leaves[2]};
  EXPECT_FALSE(MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 2,
                                       swapped, proof));
}

TEST(Merkle, RangeProofRejectsShiftedWindow) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveRange(2, 2);
  std::vector<Hash256> range = {leaves[2], leaves[3]};
  EXPECT_FALSE(
      MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 3, range, proof));
}

TEST(Merkle, PaddingLeavesProveAsEmpty) {
  auto leaves = MakeLeaves(5);  // capacity 8: indices 5..7 are padding
  MerkleTree tree(leaves);
  auto proof = tree.ProveRange(5, 3);
  std::vector<Hash256> padding(3, MerkleTree::EmptyLeaf());
  EXPECT_TRUE(
      MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 5, padding, proof));
  // Claiming a padding slot holds data must fail.
  std::vector<Hash256> forged = {Hash256::FromU64(1), MerkleTree::EmptyLeaf(),
                                 MerkleTree::EmptyLeaf()};
  EXPECT_FALSE(
      MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 5, forged, proof));
}

class MerkleMultiProofTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleMultiProofTest, AllSubsetsOfSmallTreesVerify) {
  const size_t n = GetParam();
  auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  const Hash256 root = tree.Root();
  // Every subset (bitmask) of the leaves.
  for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
    std::vector<size_t> indices;
    std::vector<std::pair<size_t, Hash256>> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) {
        indices.push_back(i);
        subset.emplace_back(i, leaves[i]);
      }
    }
    auto proof = tree.ProveLeaves(indices);
    EXPECT_TRUE(MerkleTree::VerifyLeaves(root, tree.Capacity(), subset, proof))
        << "n=" << n << " mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleMultiProofTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(MerkleMultiProof, SharesSiblingsAcrossBatch) {
  auto leaves = MakeLeaves(256);
  MerkleTree tree(leaves);
  std::vector<size_t> indices = {3, 4, 5, 6, 7, 100, 101, 200};
  auto multi = tree.ProveLeaves(indices);
  size_t individual = 0;
  for (size_t i : indices) individual += tree.ProveLeaf(i).siblings.size();
  EXPECT_LT(multi.complement.size(), individual / 2)
      << "multi=" << multi.complement.size() << " individual=" << individual;
}

TEST(MerkleMultiProof, RejectsTamperedLeaf) {
  auto leaves = MakeLeaves(16);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaves({2, 9});
  std::vector<std::pair<size_t, Hash256>> forged = {
      {2, Hash256::FromU64(666)}, {9, leaves[9]}};
  EXPECT_FALSE(
      MerkleTree::VerifyLeaves(tree.Root(), tree.Capacity(), forged, proof));
}

TEST(MerkleMultiProof, RejectsMissingOrExtraLeaf) {
  auto leaves = MakeLeaves(16);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaves({2, 9});
  std::vector<std::pair<size_t, Hash256>> missing = {{2, leaves[2]}};
  EXPECT_FALSE(
      MerkleTree::VerifyLeaves(tree.Root(), tree.Capacity(), missing, proof));
  std::vector<std::pair<size_t, Hash256>> extra = {
      {2, leaves[2]}, {5, leaves[5]}, {9, leaves[9]}};
  EXPECT_FALSE(
      MerkleTree::VerifyLeaves(tree.Root(), tree.Capacity(), extra, proof));
}

TEST(MerkleMultiProof, RejectsShiftedIndices) {
  auto leaves = MakeLeaves(16);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaves({2, 9});
  std::vector<std::pair<size_t, Hash256>> shifted = {{3, leaves[2]},
                                                     {9, leaves[9]}};
  EXPECT_FALSE(
      MerkleTree::VerifyLeaves(tree.Root(), tree.Capacity(), shifted, proof));
}

TEST(MerkleMultiProof, EmptySetProvesRoot) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaves({});
  EXPECT_TRUE(MerkleTree::VerifyLeaves(tree.Root(), tree.Capacity(), {}, proof));
  ASSERT_EQ(proof.complement.size(), 1u);
  EXPECT_EQ(proof.complement[0], tree.Root());
}

TEST(Merkle, OutOfRangeAccessesThrow) {
  MerkleTree tree(MakeLeaves(4));
  EXPECT_THROW(tree.Leaf(4), std::out_of_range);
  EXPECT_THROW(tree.SetLeaf(4, Hash256{}), std::out_of_range);
  EXPECT_THROW(tree.ProveLeaf(4), std::out_of_range);
  EXPECT_THROW(tree.ProveRange(3, 3), std::out_of_range);
  EXPECT_THROW(tree.ProveLeaves({9}), std::out_of_range);
  EXPECT_THROW(tree.ProveLeaves({2, 2}), std::out_of_range);  // not strict
}

TEST(Merkle, RandomizedRangeAdversary) {
  // Property: random single-bit flips anywhere in a range proof's
  // complement hashes are always caught.
  Rng rng(123);
  auto leaves = MakeLeaves(16);
  MerkleTree tree(leaves);
  for (int round = 0; round < 100; ++round) {
    const size_t lo = rng.NextBounded(16);
    const size_t count = 1 + rng.NextBounded(16 - lo);
    auto proof = tree.ProveRange(lo, count);
    if (proof.complement.empty()) continue;
    auto& target = proof.complement[rng.NextBounded(proof.complement.size())];
    target.bytes[rng.NextBounded(32)] ^=
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    std::span<const Hash256> range(leaves.data() + lo, count);
    EXPECT_FALSE(
        MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), lo, range, proof));
  }
}

}  // namespace
}  // namespace grub
