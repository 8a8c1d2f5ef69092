#include "ads/do.h"

#include <algorithm>
#include <iterator>

#include "ads/verify.h"

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
  const Hash256 root = Root();
  for (const auto& entry : batch) {
    const Bytes& key = entry.first;
    const size_t pos = LowerBound(key);
    if (pos < keys_.size() && Compare(keys_[pos], key) == 0) {
      // The SP must prove it still holds the record our root commits to.
      auto proof = sp.Get(key);
      if (!proof.ok()) {
        return Status::IntegrityViolation("SP omitted an existing record");
      }
      if (proof->index != pos || !VerifyQuery(root, *proof)) {
        return Status::IntegrityViolation(
            "SP proof failed for existing record");
      }
    } else {
      auto absence = sp.ProveAbsent(key);
      if (!absence.ok()) {
        return Status::IntegrityViolation(
            "SP claims presence of a record the DO never wrote");
      }
      if (!VerifyAbsence(root, key, *absence)) {
        return Status::IntegrityViolation("SP absence proof failed");
      }
    }
  }
  return Status::Ok();
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
