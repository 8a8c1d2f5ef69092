// ADS_DO: the trusted data owner's side of the ADS protocol (step w1).
//
// The DO tracks the authoritative Merkle root. Before accepting its own
// update into the root it runs the verified-update protocol against the SP:
// fetch the current record's proof (or absence proof), verify against the
// locally held root, then apply the new leaf and recompute the root. A
// mirror tree of leaf hashes (not values) makes root recomputation O(log n)
// without re-asking the SP for sibling data.
//
// The DO also signs each epoch's root (sequence = epoch number) so stale or
// forked roots replayed by the SP are rejected downstream.
#pragma once

#include "ads/record.h"
#include "ads/sp.h"
#include "common/status.h"
#include "crypto/merkle.h"
#include "crypto/signer.h"

namespace grub::ads {

class AdsDo {
 public:
  explicit AdsDo(Bytes signing_key) : signer_(std::move(signing_key)) {}

  /// Verified update against the SP: checks the SP still holds data
  /// consistent with our root, then applies the put on both sides.
  /// Returns kIntegrityViolation if the SP's proofs do not check out.
  Status VerifiedPut(AdsSp& sp, const FeedRecord& record);

  /// Verified delete (tombstoning a key out of the tree).
  Status VerifiedDelete(AdsSp& sp, ByteSpan key);

  /// Batch update: applies `records` (arrival order, last write per key
  /// wins) to the local mirror and the SP, then compares roots. Each side
  /// rehashes only dirty paths: overwrites ahead of the first insert are
  /// in-place leaf writes, and an insert splices the leaves from its
  /// position onward (a full rebuild only when capacity grows). Skips the
  /// per-record SP pre-proofs — root equality after the batch detects any
  /// divergence of the SP's tree, settled at the batch boundary instead of
  /// per record.
  Status VerifiedBatchPut(AdsSp& sp, const std::vector<FeedRecord>& records);

  /// Bootstrap load without SP round-trips (initial dataset).
  void UnverifiedPut(AdsSp& sp, const FeedRecord& record);

  /// Bootstrap load of a whole dataset into an empty DO: one mirror rebuild
  /// + one SP rebuild (the per-record UnverifiedPut loop rebuilds per
  /// mid-array insert).
  /// Produces the same tree as the loop — same leaves, same capacity.
  void BulkLoad(AdsSp& sp, const std::vector<FeedRecord>& records);

  Hash256 Root() const { return mirror_.Root(); }
  size_t RecordCount() const { return keys_.size(); }

  /// Signs the current root for the given epoch.
  Signature SignRoot(uint64_t epoch) const {
    return signer_.Sign(Root(), epoch);
  }
  const Bytes& VerificationKey() const { return signer_.VerificationKey(); }

 private:
  size_t LowerBound(ByteSpan key) const;
  void ApplyLocal(size_t pos, bool existed, const FeedRecord& record);
  void ApplyBatchLocal(const std::vector<FeedRecord>& records);

  MacSigner signer_;
  MerkleTree mirror_;        // leaf hashes only
  std::vector<Bytes> keys_;  // sorted keys, parallel to mirror leaves
};

}  // namespace grub::ads
