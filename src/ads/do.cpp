#include "ads/do.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "ads/verify.h"

namespace grub::ads {

size_t AdsDo::LowerBound(ByteSpan key) const {
  auto it = std::lower_bound(
      keys_.begin(), keys_.end(), key,
      [](const Bytes& a, ByteSpan b) { return Compare(a, b) < 0; });
  return static_cast<size_t>(it - keys_.begin());
}

void AdsDo::ApplyLocal(size_t pos, bool existed, const FeedRecord& record) {
  const Hash256 leaf = record.LeafHash();
  if (existed) {
    mirror_.SetLeaf(pos, leaf);
  } else if (pos == keys_.size()) {
    keys_.push_back(record.key);
    mirror_.Append(leaf);
  } else {
    keys_.insert(keys_.begin() + static_cast<long>(pos), record.key);
    std::vector<Hash256> leaves;
    leaves.reserve(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (i == pos) {
        leaves.push_back(leaf);
      } else {
        leaves.push_back(mirror_.Leaf(i < pos ? i : i - 1));
      }
    }
    mirror_.Rebuild(std::move(leaves));
  }
}

void AdsDo::ApplyBatchLocal(const std::vector<FeedRecord>& records) {
  struct BytesLess {
    bool operator()(const Bytes& a, const Bytes& b) const {
      return Compare(a, b) < 0;
    }
  };
  std::map<Bytes, Hash256, BytesLess> batch;  // key -> leaf, last write wins
  for (const auto& r : records) batch[r.key] = r.LeafHash();

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
    overwrites.emplace_back(pos, it->second);
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
      tail_leaves.push_back(it->second);
      ++it;
    }
    if (it != batch.end() && Compare(it->first, keys_[i]) == 0) {
      tail_leaves.push_back(it->second);
      ++it;
    } else {
      tail_leaves.push_back(mirror_.Leaf(i));
    }
    tail_keys.push_back(std::move(keys_[i]));
  }
  for (; it != batch.end(); ++it) {
    tail_keys.push_back(it->first);
    tail_leaves.push_back(it->second);
  }
  keys_.resize(splice);
  keys_.insert(keys_.end(), std::make_move_iterator(tail_keys.begin()),
               std::make_move_iterator(tail_keys.end()));
  mirror_.ReplaceSuffix(splice, tail_leaves);
}

Status AdsDo::VerifiedBatchPut(AdsSp& sp,
                               const std::vector<FeedRecord>& records) {
  if (records.empty()) return Status::Ok();
  ApplyBatchLocal(records);
  auto sp_root = sp.ApplyPutBatch(records);
  if (!sp_root.ok()) return sp_root.status();
  if (*sp_root != Root()) {
    return Status::IntegrityViolation("SP root diverged after batch update");
  }
  return Status::Ok();
}

void AdsDo::BulkLoad(AdsSp& sp, const std::vector<FeedRecord>& records) {
  if (records.empty()) return;
  ApplyBatchLocal(records);
  sp.BulkLoad(records);
}

Status AdsDo::VerifiedPut(AdsSp& sp, const FeedRecord& record) {
  const size_t pos = LowerBound(record.key);
  const bool existed =
      pos < keys_.size() && Compare(keys_[pos], record.key) == 0;

  if (existed) {
    // The SP must prove it still holds the record our root commits to.
    auto proof = sp.Get(record.key);
    if (!proof.ok()) {
      return Status::IntegrityViolation("SP omitted an existing record");
    }
    if (proof->index != pos || !VerifyQuery(Root(), *proof)) {
      return Status::IntegrityViolation("SP proof failed for existing record");
    }
  } else {
    auto absence = sp.ProveAbsent(record.key);
    if (!absence.ok()) {
      return Status::IntegrityViolation(
          "SP claims presence of a record the DO never wrote");
    }
    if (!VerifyAbsence(Root(), record.key, *absence)) {
      return Status::IntegrityViolation("SP absence proof failed");
    }
  }

  ApplyLocal(pos, existed, record);
  auto sp_root = sp.ApplyPut(record);
  if (!sp_root.ok()) return sp_root.status();
  if (*sp_root != Root()) {
    return Status::IntegrityViolation("SP root diverged after update");
  }
  return Status::Ok();
}

Status AdsDo::VerifiedDelete(AdsSp& sp, ByteSpan key) {
  const size_t pos = LowerBound(key);
  if (pos >= keys_.size() || Compare(keys_[pos], key) != 0) {
    return Status::NotFound("VerifiedDelete: unknown key");
  }
  auto proof = sp.Get(key);
  if (!proof.ok() || proof->index != pos || !VerifyQuery(Root(), *proof)) {
    return Status::IntegrityViolation("SP proof failed before delete");
  }

  keys_.erase(keys_.begin() + static_cast<long>(pos));
  std::vector<Hash256> leaves;
  leaves.reserve(keys_.size());
  for (size_t i = 0; i < keys_.size() + 1; ++i) {
    if (i == pos) continue;
    leaves.push_back(mirror_.Leaf(i));
  }
  mirror_.Rebuild(std::move(leaves));

  Status s = sp.ApplyDelete(key);
  if (!s.ok()) return s;
  if (sp.Root() != Root()) {
    return Status::IntegrityViolation("SP root diverged after delete");
  }
  return Status::Ok();
}

void AdsDo::UnverifiedPut(AdsSp& sp, const FeedRecord& record) {
  const size_t pos = LowerBound(record.key);
  const bool existed =
      pos < keys_.size() && Compare(keys_[pos], record.key) == 0;
  ApplyLocal(pos, existed, record);
  (void)sp.ApplyPut(record);
}

}  // namespace grub::ads
