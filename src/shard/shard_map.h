// ShardMap: deterministic range partitioning of the feed keyspace.
//
// The keyspace is split into `count` contiguous key-range shards by an
// explicit sorted boundary vector: shard i covers [boundary[i-1], boundary[i])
// with boundary[-1] = -inf (empty prefix) and boundary[count-1] = +inf.
// The layout is fixed for a deployment's lifetime: nothing splits or merges
// shards at run time.
//
// Determinism is the load-bearing property: the DO, the SP daemon and the
// storage-manager contract each hold a copy of the same map and must agree on
// ShardOf(key) for every key, or proofs verify against the wrong shard root.
// A map is a pure value (no RNG, no clock); two maps built from the same
// boundaries are interchangeable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace grub::shard {

class ShardMap {
 public:
  /// Single-shard map (the legacy, unsharded layout).
  ShardMap() = default;

  /// Explicit layout: `boundaries` are the sorted, distinct lower bounds of
  /// shards 1..n (shard 0 starts at the empty key). Count() == n + 1.
  /// Throws std::invalid_argument when unsorted or duplicated.
  explicit ShardMap(std::vector<Bytes> boundaries);

  /// Uniform partition of the 2^64 key prefix space: boundary i is the
  /// 8-byte big-endian encoding of floor(i * 2^64 / count). Right for keys
  /// with high-entropy prefixes (hashes); structured keyspaces (the
  /// fixed-width decimal workload keys) should pass explicit boundaries.
  static ShardMap Uniform(uint32_t count);

  size_t Count() const { return boundaries_.size() + 1; }

  /// The shard whose range contains `key`: the number of boundaries <= key.
  uint32_t ShardOf(ByteSpan key) const;

  /// Inclusive lower bound of shard `s` (empty for shard 0).
  const Bytes& LowerBoundOf(uint32_t s) const;
  /// Exclusive upper bound of shard `s` (empty = unbounded, for the last).
  Bytes UpperBoundOf(uint32_t s) const;

  const std::vector<Bytes>& Boundaries() const { return boundaries_; }

  bool operator==(const ShardMap& o) const {
    return boundaries_ == o.boundaries_;
  }

  /// "shards=N ranges=[..)" summary for logs and --json output.
  std::string Describe() const;

 private:
  std::vector<Bytes> boundaries_;  // sorted lower bounds of shards 1..n
};

}  // namespace grub::shard
