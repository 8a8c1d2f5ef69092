#include "ads/do.h"

#include <algorithm>
#include <iterator>

namespace grub::ads {

AdsDo::Batch AdsDo::Dedup(const std::vector<FeedRecord>& records) {
  Batch batch;
  for (const auto& r : records) batch[r.key] = &r;
  return batch;
}

size_t AdsDo::LowerBound(ByteSpan key) const {
  auto it = std::lower_bound(
      keys_.begin(), keys_.end(), key,
      [](const Bytes& a, ByteSpan b) { return Compare(a, b) < 0; });
  return static_cast<size_t>(it - keys_.begin());
}

Status AdsDo::CheckSpHolds(const AdsSp& sp, const Batch& batch) const {
  // A proof verifies against Root() exactly when every hash it carries
  // equals the mirror's node at that position (collision resistance). So
  // the DO hashes only the records a proof returns and compares the rest
  // with its own nodes: no inner-node hash, however many keys share a path.
  for (const auto& entry : batch) {
    const Bytes& key = entry.first;
    const size_t pos = LowerBound(key);
    if (pos < keys_.size() && Compare(keys_[pos], key) == 0) {
      // The SP must prove it still holds the record our root commits to.
      auto proof = sp.Get(key);
      if (!proof.ok()) {
        return Status::IntegrityViolation("SP omitted an existing record");
      }
      if (proof->index != pos || proof->capacity != mirror_.Capacity() ||
          proof->record.LeafHash() != mirror_.Leaf(pos) ||
          !mirror_.MatchesLeafProof(pos, proof->path)) {
        return Status::IntegrityViolation(
            "SP proof failed for existing record");
      }
    } else {
      auto absence = sp.ProveAbsent(key);
      if (!absence.ok()) {
        return Status::IntegrityViolation(
            "SP claims presence of a record the DO never wrote");
      }
      if (!MatchesAbsenceWindow(pos, *absence)) {
        return Status::IntegrityViolation("SP absence proof failed");
      }
    }
  }
  return Status::Ok();
}

bool AdsDo::MatchesAbsenceWindow(size_t pos, const AbsenceProof& proof) const {
  // The window AdsSp::ProveAbsent proves a key at insert position `pos`
  // absent with: the predecessor, then the successor or, past the last
  // record of a tree with room, the padding leaf after it.
  const size_t n = keys_.size();
  const size_t lo = pos == 0 ? 0 : pos - 1;
  const size_t records = (pos > 0 ? 1 : 0) + (pos < n ? 1 : 0);
  const bool empty_tail = pos == n && n < mirror_.Capacity();
  if (proof.lo != lo || proof.capacity != mirror_.Capacity() ||
      proof.boundary.size() != records || proof.empty_tail != empty_tail) {
    return false;
  }
  for (size_t i = 0; i < records; ++i) {
    if (proof.boundary[i].LeafHash() != mirror_.Leaf(lo + i)) return false;
  }
  return mirror_.MatchesRangeProof(lo, records + (empty_tail ? 1 : 0),
                                   proof.range);
}

void AdsDo::ApplyBatchLocal(const Batch& batch) {
  // Keys ahead of the first insert are overwrites: in-place leaf writes.
  std::vector<std::pair<size_t, Hash256>> overwrites;
  auto it = batch.begin();
  size_t splice = keys_.size();
  for (; it != batch.end(); ++it) {
    const size_t pos = LowerBound(it->first);
    if (pos == keys_.size() || Compare(keys_[pos], it->first) != 0) {
      splice = pos;
      break;
    }
    overwrites.emplace_back(pos, it->second->LeafHash());
  }
  mirror_.SetLeaves(overwrites);
  if (it == batch.end()) return;

  // From the first insert on, every position shifts: merge the stored tail
  // with the remaining batch keys and splice the merged leaves in.
  std::vector<Bytes> tail_keys;
  std::vector<Hash256> tail_leaves;
  tail_keys.reserve(keys_.size() - splice + batch.size());
  tail_leaves.reserve(keys_.size() - splice + batch.size());
  for (size_t i = splice; i < keys_.size(); ++i) {
    while (it != batch.end() && Compare(it->first, keys_[i]) < 0) {
      tail_keys.push_back(it->first);
      tail_leaves.push_back(it->second->LeafHash());
      ++it;
    }
    if (it != batch.end() && Compare(it->first, keys_[i]) == 0) {
      tail_leaves.push_back(it->second->LeafHash());
      ++it;
    } else {
      tail_leaves.push_back(mirror_.Leaf(i));
    }
    tail_keys.push_back(std::move(keys_[i]));
  }
  for (; it != batch.end(); ++it) {
    tail_keys.push_back(it->first);
    tail_leaves.push_back(it->second->LeafHash());
  }
  keys_.resize(splice);
  keys_.insert(keys_.end(), std::make_move_iterator(tail_keys.begin()),
               std::make_move_iterator(tail_keys.end()));
  mirror_.ReplaceSuffix(splice, tail_leaves);
}

Status AdsDo::VerifiedBatchPut(AdsSp& sp,
                               const std::vector<FeedRecord>& records) {
  if (records.empty()) return Status::Ok();
  const Batch batch = Dedup(records);
  Status held = CheckSpHolds(sp, batch);
  if (!held.ok()) return held;
  ApplyBatchLocal(batch);
  auto sp_root = sp.ApplyPutBatch(records);
  if (!sp_root.ok()) return sp_root.status();
  if (*sp_root != Root()) {
    return Status::IntegrityViolation("SP root diverged after batch update");
  }
  return Status::Ok();
}

void AdsDo::BulkLoad(AdsSp& sp, const std::vector<FeedRecord>& records) {
  if (records.empty()) return;
  ApplyBatchLocal(Dedup(records));
  sp.BulkLoad(records);
}

}  // namespace grub::ads
