// Merkle forest ADS: one Merkle tree per key-range shard, rolled up into a
// root-of-roots.
//
// Layout. A ShardMap partitions the keyspace; each shard holds its own
// sorted record array + Merkle tree (the existing AdsDo/AdsSp machinery,
// unchanged). The forest commitment is the root-of-roots: a Merkle tree
// whose leaves are the shard roots in shard order (padded to a power of two
// with empty leaves, exactly like the record trees). With one shard the
// root-of-roots IS the shard root — no extra hashing, so the single-shard
// configuration is bit-identical to the legacy single-tree deployment.
//
// Proof scoping. Queries, absence proofs and scans are served per shard,
// against that shard's root. On chain the storage manager keeps every shard
// root plus the root-of-roots; a deliver proof verifies against the stored
// shard root (one sload), and an epoch update proves the new root-of-roots
// by recomputing the rollup over the stored shard roots — O(shard count)
// work, independent of the keyspace size (ComputeRootOfRootsMetered).
//
// The commitment. The DO side keeps the one incremental rollup tree: leaf s
// is the shard root that last LANDED on chain, so its root is exactly the
// root-of-roots the contract holds. The update publisher moves a leaf only
// when the update carrying that root lands; a lost update leaves it where it
// was, and the shard's root is re-sent with the next epoch.
//
// Batch protocol. Every verified write is a per-shard batch through
// AdsDo::VerifiedBatchPut, on every shard count: the forest routes each
// record to its shard by the ShardMap, and per touched shard the SP first
// proves, against that shard's pre-batch root, what the root commits to
// for every key the batch writes (membership at the DO's index for an
// existing key, absence for a new one); only then do both sides apply the
// batch — dirty paths only, in-place leaf writes for overwrites, a suffix
// splice from the first insert — and the roots must agree. The pre-proofs
// catch a forked or omitted record the batch is about to overwrite; root
// equality afterwards checks the rest of the SP's TREE, since the changed
// leaves, which the SP hashes from the records it received, are combined
// with every other node it holds. Neither re-hashes every record the SP
// stores: a value forged beneath an honest leaf hash outside the proof
// windows survives the batch and is caught where it is served, because
// every served proof recomputes its leaf from the delivered record and
// verifies it against the shard root (ads/verify.h, the on-chain deliver
// check).
// Served-proof verification remains the integrity guarantee.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "ads/do.h"
#include "ads/sp.h"
#include "common/status.h"
#include "crypto/merkle.h"
#include "shard/shard_map.h"

namespace grub::shard {

/// Rollup of shard roots: the shard root itself for one shard, else the
/// Merkle root over the shard roots as leaves (power-of-two padding with
/// empty leaves, inner nodes via MerkleTree::HashNode).
Hash256 ComputeRootOfRoots(const std::vector<Hash256>& shard_roots);

/// As above, invoking `hash_cost(bytes_hashed)` once per inner node computed
/// (65 bytes each: 0x01 prefix + two hashes) — the contract's metered form.
Hash256 ComputeRootOfRootsMetered(
    const std::vector<Hash256>& shard_roots,
    const std::function<void(size_t)>& hash_cost);

/// One shard's slice of a cross-shard scan: the subrange [start, end) that
/// falls inside `shard`, with that shard's completeness proof.
struct ShardScanPart {
  uint32_t shard = 0;
  Bytes start;
  Bytes end;  // exclusive; empty = unbounded (last part only)
  ads::ScanProof proof;
};

/// The SP side of the forest: one AdsSp per shard, point operations routed
/// by the ShardMap, scans split into per-shard parts. With one shard every
/// call delegates to the single AdsSp untouched.
class ShardedAdsSp {
 public:
  /// `db_path` empty = in-memory. With a path and multiple shards, shard i
  /// persists under "<db_path>.shard<i>" (shard 0 of a single-shard map
  /// keeps the bare path — legacy recovery layout).
  ShardedAdsSp(ShardMap map, const std::string& db_path = "");

  const ShardMap& Map() const { return map_; }
  size_t ShardCount() const { return shards_.size(); }
  ads::AdsSp& Shard(size_t s) { return *shards_[s]; }
  const ads::AdsSp& Shard(size_t s) const { return *shards_[s]; }

  // Routed single-key operations (see AdsSp for semantics).
  Result<ads::QueryProof> Get(ByteSpan key) const;
  Result<ads::AbsenceProof> ProveAbsent(ByteSpan key) const;
  Result<ads::FeedRecord> Peek(ByteSpan key) const;
  ads::ReplState EffectiveState(ByteSpan key) const;
  void SetAdvisoryTier(ByteSpan key, tier::StorageTier t);
  tier::StorageTier EffectiveTier(ByteSpan key) const;

  /// Splits [start, end) at shard boundaries; one part per covered shard,
  /// each with its own completeness proof. A single-shard map returns
  /// exactly one part (the legacy scan). Empty-subrange parts are kept —
  /// their proofs assert completeness of the empty answer.
  Result<std::vector<ShardScanPart>> ScanSharded(ByteSpan start,
                                                 ByteSpan end) const;

  Hash256 ShardRoot(size_t s) const { return shards_[s]->Root(); }
  Hash256 RootOfRoots() const;
  size_t RecordCount() const;

  void SetMetrics(telemetry::MetricsRegistry* registry);
  void SetFaultInjector(fault::FaultInjector* faults);

 private:
  ShardMap map_;  // owned copy: callers may pass temporaries
  std::vector<std::unique_ptr<ads::AdsSp>> shards_;
};

/// The DO side of the forest: one AdsDo mirror per shard plus the landed
/// rollup, the root-of-roots the chain holds. Tracks which shards' trees
/// changed since the last TakeTouchedShards() — the per-epoch "touched
/// shards" the update path and the telemetry column report.
class ShardedAdsDo {
 public:
  ShardedAdsDo(ShardMap map, Bytes signing_key);

  const ShardMap& Map() const { return map_; }

  /// The verified update: partitions `records` (arrival order, last write
  /// per key wins) by shard and runs AdsDo::VerifiedBatchPut on each
  /// touched shard in shard order. The first rejected shard stops the call
  /// and its status is returned; that shard and the ones after it are left
  /// untouched, the ones before it stay applied.
  Status VerifiedBatchPut(ShardedAdsSp& sp,
                          const std::vector<ads::FeedRecord>& records);

  /// Bootstrap load: partitions records by shard and bulk-loads each side
  /// with one splice per shard (no SP round-trips, no quadratic preload).
  void BulkLoad(ShardedAdsSp& sp, const std::vector<ads::FeedRecord>& records);

  Hash256 ShardRoot(size_t s) const { return dos_[s].Root(); }
  size_t RecordCount() const;

  /// The root-of-roots the chain holds: the rollup over every shard's
  /// landed root (the landed root itself for one shard). Before anything
  /// lands every leaf is zero, the root an unset contract slot reads as.
  Hash256 RootOfRoots() const { return landed_.Root(); }
  /// Shard `s`'s root as it last landed on chain.
  const Hash256& LandedRoot(size_t s) const { return landed_.Leaf(s); }
  /// True when shard `s`'s current root is the one the chain holds.
  bool Landed(size_t s) const { return LandedRoot(s) == ShardRoot(s); }
  /// Moves shard `s`'s landed leaf to `root` (O(log shards) hashes).
  void SetLanded(size_t s, const Hash256& root) { landed_.SetLeaf(s, root); }

  /// Shards whose trees changed since the last call (sorted); clears the set.
  std::vector<uint32_t> TakeTouchedShards();

 private:
  /// `records` split by owning shard, arrival order kept within a shard.
  std::vector<std::vector<ads::FeedRecord>> Partition(
      const std::vector<ads::FeedRecord>& records) const;

  ShardMap map_;  // owned copy: callers may pass temporaries
  std::vector<ads::AdsDo> dos_;
  MerkleTree landed_;  // leaf s: shard s's root as the chain holds it
  std::set<uint32_t> touched_;
};

}  // namespace grub::shard
