// ADS_DO: the trusted data owner's side of the ADS protocol (step w1).
//
// The DO tracks the authoritative Merkle root and runs one verified-update
// protocol for every write: a batch of records (one record is a batch of
// one) is de-duplicated by key, the SP proves against the pre-batch root
// that it still holds what that root commits to for every key the batch
// writes (a membership proof at the DO's index for an existing key, an
// absence proof for a new one), and only then do both sides apply the batch
// and the roots get compared. A mirror tree of leaf hashes (not values)
// makes the root recomputation a dirty-path splice without re-asking the SP
// for sibling data, and lets the DO check each pre-batch proof by comparing
// the hashes it carries with the mirror's own nodes instead of recomputing
// a root path per key.
//
// The DO also signs each epoch's root (sequence = epoch number) so stale or
// forked roots replayed by the SP are rejected downstream.
#pragma once

#include <map>
#include <vector>

#include "ads/record.h"
#include "ads/sp.h"
#include "common/status.h"
#include "crypto/merkle.h"
#include "crypto/signer.h"

namespace grub::ads {

class AdsDo {
 public:
  explicit AdsDo(Bytes signing_key) : signer_(std::move(signing_key)) {}

  /// The verified update: applies `records` (arrival order, last write per
  /// key wins) on both sides. Every distinct key is first checked against
  /// the pre-batch root — sp.Get must return the record at the DO's index
  /// with its audit path, sp.ProveAbsent the window the DO expects (the
  /// neighbours or padding leaf around the key's insert position), each
  /// record hashing to the mirror's leaf and each sibling or complement
  /// hash equal to the mirror's node — and any failure returns
  /// kIntegrityViolation with neither side touched. Then each side rehashes
  /// dirty paths only (in-place leaf writes ahead of the first insert, a
  /// suffix splice from it, also across a capacity change) and the SP's new
  /// root must equal the mirror's.
  Status VerifiedBatchPut(AdsSp& sp, const std::vector<FeedRecord>& records);

  /// Bootstrap load without SP round-trips (initial dataset): the batch
  /// applied on both sides unverified, through the same splice.
  void BulkLoad(AdsSp& sp, const std::vector<FeedRecord>& records);

  Hash256 Root() const { return mirror_.Root(); }
  size_t RecordCount() const { return keys_.size(); }

  /// Signs the current root for the given epoch.
  Signature SignRoot(uint64_t epoch) const {
    return signer_.Sign(Root(), epoch);
  }
  const Bytes& VerificationKey() const { return signer_.VerificationKey(); }

 private:
  struct BytesLess {
    bool operator()(const Bytes& a, const Bytes& b) const {
      return Compare(a, b) < 0;
    }
  };
  /// A batch's distinct keys in key order, each mapped to its last write.
  using Batch = std::map<Bytes, const FeedRecord*, BytesLess>;

  static Batch Dedup(const std::vector<FeedRecord>& records);
  size_t LowerBound(ByteSpan key) const;
  Status CheckSpHolds(const AdsSp& sp, const Batch& batch) const;
  bool MatchesAbsenceWindow(size_t pos, const AbsenceProof& proof) const;
  void ApplyBatchLocal(const Batch& batch);

  MacSigner signer_;
  MerkleTree mirror_;        // leaf hashes only
  std::vector<Bytes> keys_;  // sorted keys, parallel to mirror leaves
};

}  // namespace grub::ads
