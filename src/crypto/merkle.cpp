#include "crypto/merkle.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "crypto/sha256.h"
#include "telemetry/profile.h"

namespace grub {

namespace {

size_t CapacityFor(size_t n) {
  return n <= 1 ? 1 : std::bit_ceil(n);
}

/// Hash of an all-padding subtree `level` levels tall: the padding leaf is
/// the constant EmptyLeaf(), so each level has one constant. Computed once
/// per process.
const Hash256& PaddingHash(size_t level) {
  static const std::array<Hash256, 64> table = [] {
    std::array<Hash256, 64> t{};
    t[0] = MerkleTree::EmptyLeaf();
    for (size_t i = 1; i < t.size(); ++i) {
      t[i] = MerkleTree::HashNode(t[i - 1], t[i - 1]);
    }
    return t;
  }();
  return table[level];
}

}  // namespace

Hash256 MerkleTree::HashLeafData(ByteSpan data) {
  static constexpr uint8_t kLeafPrefix = 0x00;
  Sha256 h;
  h.Update(ByteSpan(&kLeafPrefix, 1));
  h.Update(data);
  return h.Finish();
}

Hash256 MerkleTree::HashNode(const Hash256& left, const Hash256& right) {
  static constexpr uint8_t kNodePrefix = 0x01;
  return Sha256::DigestNode(kNodePrefix, left, right);
}

MerkleTree::MerkleTree(std::vector<Hash256> leaves) {
  Rebuild(std::move(leaves));
}

void MerkleTree::Rebuild(std::vector<Hash256> leaves) {
  GRUB_PROBE(telemetry::ProbeSite::kMerkleRebuild);
  leaf_count_ = leaves.size();
  const size_t capacity = CapacityFor(leaf_count_);
  leaves.resize(capacity, EmptyLeaf());

  levels_.clear();
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const auto& below = levels_.back();
    std::vector<Hash256> above(below.size() / 2);
    for (size_t i = 0; i < above.size(); ++i) {
      above[i] = HashNode(below[2 * i], below[2 * i + 1]);
    }
    levels_.push_back(std::move(above));
  }
}

Hash256 MerkleTree::Root() const {
  return levels_.back()[0];
}

const Hash256& MerkleTree::Leaf(size_t index) const {
  if (index >= leaf_count_) {
    throw std::out_of_range("MerkleTree::Leaf: index out of range");
  }
  return levels_[0][index];
}

void MerkleTree::SetLeaf(size_t index, const Hash256& hash) {
  if (index >= leaf_count_) {
    throw std::out_of_range("MerkleTree::SetLeaf: index out of range");
  }
  levels_[0][index] = hash;
  RecomputeSpan(index, index + 1);
}

void MerkleTree::SetLeaves(
    std::span<const std::pair<size_t, Hash256>> updates) {
  for (size_t i = 0; i < updates.size(); ++i) {
    if (updates[i].first >= leaf_count_ ||
        (i > 0 && updates[i].first <= updates[i - 1].first)) {
      throw std::out_of_range(
          "MerkleTree::SetLeaves: indices not sorted/in range");
    }
  }
  // `dirty` holds the sorted, distinct node indices changed at the current
  // level; each pass maps them to their parents in place (siblings collapse
  // into one parent, so a shared ancestor is hashed once).
  std::vector<size_t> dirty;
  dirty.reserve(updates.size());
  for (const auto& [index, hash] : updates) {
    levels_[0][index] = hash;
    dirty.push_back(index);
  }
  for (size_t level = 0; level + 1 < levels_.size() && !dirty.empty();
       ++level) {
    const auto& below = levels_[level];
    auto& above = levels_[level + 1];
    size_t count = 0;
    for (size_t i = 0; i < dirty.size(); ++i) {
      const size_t parent = dirty[i] / 2;
      if (count > 0 && dirty[count - 1] == parent) continue;
      dirty[count++] = parent;
      above[parent] = HashNode(below[2 * parent], below[2 * parent + 1]);
    }
    dirty.resize(count);
  }
}

void MerkleTree::ReplaceSuffix(size_t first, std::span<const Hash256> suffix) {
  if (first > leaf_count_) {
    throw std::out_of_range("MerkleTree::ReplaceSuffix: first past the end");
  }
  const size_t old_count = leaf_count_;
  const size_t new_count = first + suffix.size();
  const size_t capacity = CapacityFor(new_count);
  if (capacity != Capacity()) Resize(capacity);
  auto& leaves = levels_[0];
  std::copy(suffix.begin(), suffix.end(),
            leaves.begin() + static_cast<long>(first));
  // A shrinking suffix hands the freed slots the width keeps back to padding.
  const size_t end = std::min(std::max(old_count, new_count), capacity);
  for (size_t i = new_count; i < end; ++i) leaves[i] = EmptyLeaf();
  leaf_count_ = new_count;
  RecomputeSpan(first, end);
}

void MerkleTree::Resize(size_t capacity) {
  // Growing keeps the old tree as the leftmost subtree and fills every new
  // slot with its level's padding hash; shrinking truncates each level and
  // drops the top ones. Either way every node that does not meet the
  // changed leaves is already right. Each new top level's node 0 spans the
  // whole old tree, so the caller's RecomputeSpan always rehashes it.
  const size_t depth = static_cast<size_t>(std::bit_width(capacity) - 1);
  levels_.resize(depth + 1);
  for (size_t level = 0; level <= depth; ++level) {
    levels_[level].resize(capacity >> level, PaddingHash(level));
  }
}

void MerkleTree::RecomputeSpan(size_t lo, size_t hi) {
  if (lo >= hi) return;
  // Node j of level L spans leaves [j << L, (j + 1) << L): the nodes meeting
  // [lo, hi) are j in [lo >> L, (hi - 1) >> L].
  size_t first = lo, last = hi - 1;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    first /= 2;
    last /= 2;
    const auto& below = levels_[level];
    auto& above = levels_[level + 1];
    for (size_t j = first; j <= last; ++j) {
      above[j] = HashNode(below[2 * j], below[2 * j + 1]);
    }
  }
}

MerkleProof MerkleTree::ProveLeaf(size_t index) const {
  if (index >= Capacity()) {
    throw std::out_of_range("MerkleTree::ProveLeaf: index out of range");
  }
  MerkleProof proof;
  proof.siblings.reserve(levels_.size() - 1);
  size_t i = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    proof.siblings.push_back(levels_[level][i ^ 1]);
    i /= 2;
  }
  return proof;
}

bool MerkleTree::MatchesLeafProof(size_t index,
                                  const MerkleProof& proof) const {
  if (index >= Capacity() || proof.siblings.size() + 1 != levels_.size()) {
    return false;
  }
  size_t i = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    if (proof.siblings[level] != levels_[level][i ^ 1]) return false;
    i /= 2;
  }
  return true;
}

bool MerkleTree::VerifyLeaf(const Hash256& root, const Hash256& leaf,
                            size_t index, size_t capacity,
                            const MerkleProof& proof) {
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) return false;
  if (index >= capacity) return false;
  // Depth must match the committed tree shape exactly.
  const size_t depth = static_cast<size_t>(std::bit_width(capacity) - 1);
  if (proof.siblings.size() != depth) return false;

  Hash256 acc = leaf;
  size_t i = index;
  for (const Hash256& sibling : proof.siblings) {
    acc = (i & 1) ? HashNode(sibling, acc) : HashNode(acc, sibling);
    i /= 2;
  }
  return acc == root;
}

namespace {

// Walks the maximal subtrees covering every leaf outside [lo, hi), in
// pre-order, handing each one's stored hash to `visit` — the complement
// ProveRange ships and MatchesRangeProof compares. Nodes are identified by
// the half-open leaf interval [a, b).
template <typename Visit>
struct RangeCover {
  const std::vector<std::vector<Hash256>>& levels;
  size_t lo, hi;  // proven range [lo, hi)
  Visit& visit;

  void Walk(size_t level, size_t node, size_t a, size_t b) {
    if (b <= lo || a >= hi) {
      visit(levels[level][node]);
      return;
    }
    if (b - a == 1) return;  // in-range leaf: verifier supplies it
    const size_t mid = a + (b - a) / 2;
    Walk(level - 1, node * 2, a, mid);
    Walk(level - 1, node * 2 + 1, mid, b);
  }
};

struct RangeVerifier {
  size_t lo, hi;
  std::span<const Hash256> leaves;
  std::span<const Hash256> complement;
  size_t leaf_pos = 0;
  size_t comp_pos = 0;
  bool failed = false;

  Hash256 Walk(size_t a, size_t b) {
    if (failed) return Hash256{};
    if (b <= lo || a >= hi) {
      if (comp_pos >= complement.size()) {
        failed = true;
        return Hash256{};
      }
      return complement[comp_pos++];
    }
    if (b - a == 1) {
      if (leaf_pos >= leaves.size()) {
        failed = true;
        return Hash256{};
      }
      return leaves[leaf_pos++];
    }
    const size_t mid = a + (b - a) / 2;
    Hash256 left = Walk(a, mid);
    Hash256 right = Walk(mid, b);
    return MerkleTree::HashNode(left, right);
  }
};

}  // namespace

namespace {

// Multiproof recursion over a sorted index set: a subtree containing none of
// the indices contributes one complement hash; in-set leaves come from the
// verifier; mixed subtrees recurse.
struct MultiProver {
  const std::vector<std::vector<Hash256>>& levels;
  const std::vector<size_t>& indices;  // sorted
  std::vector<Hash256>& complement;

  bool AnyIn(size_t a, size_t b) const {
    auto it = std::lower_bound(indices.begin(), indices.end(), a);
    return it != indices.end() && *it < b;
  }

  void Walk(size_t level, size_t node, size_t a, size_t b) {
    if (!AnyIn(a, b)) {
      complement.push_back(levels[level][node]);
      return;
    }
    if (b - a == 1) return;  // in-set leaf
    const size_t mid = a + (b - a) / 2;
    Walk(level - 1, node * 2, a, mid);
    Walk(level - 1, node * 2 + 1, mid, b);
  }
};

struct MultiVerifier {
  const std::vector<std::pair<size_t, Hash256>>& leaves;  // sorted by index
  std::span<const Hash256> complement;
  size_t leaf_pos = 0;
  size_t comp_pos = 0;
  bool failed = false;

  bool AnyIn(size_t a, size_t b) const {
    // leaves are consumed in order; peek whether the next one is in [a,b).
    return leaf_pos < leaves.size() && leaves[leaf_pos].first >= a &&
           leaves[leaf_pos].first < b;
  }

  Hash256 Walk(size_t a, size_t b) {
    if (failed) return Hash256{};
    if (!AnyIn(a, b)) {
      if (comp_pos >= complement.size()) {
        failed = true;
        return Hash256{};
      }
      return complement[comp_pos++];
    }
    if (b - a == 1) {
      if (leaves[leaf_pos].first != a) {
        failed = true;
        return Hash256{};
      }
      return leaves[leaf_pos++].second;
    }
    const size_t mid = a + (b - a) / 2;
    Hash256 left = Walk(a, mid);
    Hash256 right = Walk(mid, b);
    return MerkleTree::HashNode(left, right);
  }
};

}  // namespace

MerkleMultiProof MerkleTree::ProveLeaves(
    const std::vector<size_t>& sorted_indices) const {
  const size_t capacity = Capacity();
  for (size_t i = 0; i < sorted_indices.size(); ++i) {
    if (sorted_indices[i] >= capacity ||
        (i > 0 && sorted_indices[i] <= sorted_indices[i - 1])) {
      throw std::out_of_range("ProveLeaves: indices not sorted/in range");
    }
  }
  MerkleMultiProof proof;
  if (sorted_indices.empty()) {
    proof.complement.push_back(Root());
    return proof;
  }
  if (capacity == 1) return proof;  // single leaf, in-set
  MultiProver prover{levels_, sorted_indices, proof.complement};
  prover.Walk(levels_.size() - 1, 0, 0, capacity);
  return proof;
}

bool MerkleTree::VerifyLeaves(
    const Hash256& root, size_t capacity,
    const std::vector<std::pair<size_t, Hash256>>& leaves,
    const MerkleMultiProof& proof) {
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) return false;
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (leaves[i].first >= capacity) return false;
    if (i > 0 && leaves[i].first <= leaves[i - 1].first) return false;
  }
  MultiVerifier verifier{leaves, proof.complement};
  Hash256 computed = verifier.Walk(0, capacity);
  if (verifier.failed) return false;
  if (verifier.leaf_pos != leaves.size()) return false;
  if (verifier.comp_pos != proof.complement.size()) return false;
  return computed == root;
}

MerkleRangeProof MerkleTree::ProveRange(size_t lo, size_t count) const {
  const size_t capacity = Capacity();
  if (lo > capacity || count > capacity - lo) {
    throw std::out_of_range("MerkleTree::ProveRange: range out of bounds");
  }
  MerkleRangeProof proof;
  auto push = [&proof](const Hash256& h) { proof.complement.push_back(h); };
  RangeCover<decltype(push)> cover{levels_, lo, lo + count, push};
  cover.Walk(levels_.size() - 1, 0, 0, capacity);
  return proof;
}

bool MerkleTree::MatchesRangeProof(size_t lo, size_t count,
                                   const MerkleRangeProof& proof) const {
  const size_t capacity = Capacity();
  if (lo > capacity || count > capacity - lo) return false;
  size_t pos = 0;
  bool same = true;
  auto compare = [&](const Hash256& h) {
    same = same && pos < proof.complement.size() &&
           proof.complement[pos] == h;
    ++pos;
  };
  RangeCover<decltype(compare)> cover{levels_, lo, lo + count, compare};
  cover.Walk(levels_.size() - 1, 0, 0, capacity);
  return same && pos == proof.complement.size();
}

bool MerkleTree::VerifyRange(const Hash256& root, size_t capacity, size_t lo,
                             std::span<const Hash256> leaves,
                             const MerkleRangeProof& proof) {
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) return false;
  if (lo > capacity || leaves.size() > capacity - lo) return false;
  RangeVerifier verifier{lo, lo + leaves.size(), leaves, proof.complement};
  Hash256 computed = verifier.Walk(0, capacity);
  if (verifier.failed) return false;
  // Every supplied hash must have been consumed (no smuggled extras).
  if (verifier.leaf_pos != leaves.size()) return false;
  if (verifier.comp_pos != proof.complement.size()) return false;
  return computed == root;
}

}  // namespace grub
