#include "ads/sp.h"

#include <algorithm>
#include <iterator>

namespace grub::ads {

AdsSp::AdsSp(const std::string& db_path) {
  auto db = kv::KVStore::Open(kv::Options{}, db_path);
  if (!db.ok()) {
    throw std::runtime_error("AdsSp: cannot open backing store: " +
                             db.status().ToString());
  }
  db_ = std::move(db).value();

  // Crash recovery: the KVStore holds canonical record encodings keyed by
  // record key (already in key order); rebuild the array and the tree.
  std::vector<Hash256> leaves;
  auto it = db_->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    auto record = FeedRecord::Deserialize(it->value());
    if (!record.ok()) {
      throw std::runtime_error("AdsSp: corrupt persisted record: " +
                               record.status().ToString());
    }
    leaves.push_back(record->LeafHash());
    records_.push_back(std::move(record).value());
  }
  if (!records_.empty()) tree_.Rebuild(std::move(leaves));
}

size_t AdsSp::LowerBound(ByteSpan key) const {
  auto it = std::lower_bound(
      records_.begin(), records_.end(), key,
      [](const FeedRecord& r, ByteSpan k) { return Compare(r.key, k) < 0; });
  return static_cast<size_t>(it - records_.begin());
}

void AdsSp::PersistRecord(const FeedRecord& record) {
  // The KVStore persists the canonical encoding keyed by the record key.
  (void)db_->Put(record.key, record.Serialize());
}

Result<Hash256> AdsSp::ApplyPutBatch(const std::vector<FeedRecord>& records) {
  if (records.empty()) return tree_.Root();
  std::map<Bytes, const FeedRecord*, BytesLess> batch;  // last write wins
  for (const auto& r : records) batch[r.key] = &r;

  // Keys ahead of the first insert are overwrites: in-place record and leaf
  // writes. Every received record is hashed here, never taken on trust.
  std::vector<std::pair<size_t, Hash256>> overwrites;
  auto it = batch.begin();
  size_t splice = records_.size();
  for (; it != batch.end(); ++it) {
    const size_t pos = LowerBound(it->first);
    if (pos == records_.size() || Compare(records_[pos].key, it->first) != 0) {
      splice = pos;
      break;
    }
    records_[pos] = *it->second;
    overwrites.emplace_back(pos, it->second->LeafHash());
  }
  tree_.SetLeaves(overwrites);

  if (it != batch.end()) {
    // From the first insert on, every position shifts: merge the stored tail
    // with the remaining batch records. Unchanged records keep the leaf hash
    // the tree already holds.
    std::vector<FeedRecord> tail;
    std::vector<Hash256> tail_leaves;
    tail.reserve(records_.size() - splice + batch.size());
    tail_leaves.reserve(records_.size() - splice + batch.size());
    for (size_t i = splice; i < records_.size(); ++i) {
      while (it != batch.end() && Compare(it->first, records_[i].key) < 0) {
        tail.push_back(*it->second);
        tail_leaves.push_back(it->second->LeafHash());
        ++it;
      }
      if (it != batch.end() && Compare(it->first, records_[i].key) == 0) {
        tail.push_back(*it->second);
        tail_leaves.push_back(it->second->LeafHash());
        ++it;
      } else {
        tail.push_back(std::move(records_[i]));
        tail_leaves.push_back(tree_.Leaf(i));
      }
    }
    for (; it != batch.end(); ++it) {
      tail.push_back(*it->second);
      tail_leaves.push_back(it->second->LeafHash());
    }
    records_.erase(records_.begin() + static_cast<long>(splice),
                   records_.end());
    records_.insert(records_.end(), std::make_move_iterator(tail.begin()),
                    std::make_move_iterator(tail.end()));
    tree_.ReplaceSuffix(splice, tail_leaves);
  }
  for (const auto& r : records) PersistRecord(r);
  return tree_.Root();
}

Result<QueryProof> AdsSp::Get(ByteSpan key) const {
  const size_t pos = LowerBound(key);
  if (pos >= records_.size() || Compare(records_[pos].key, key) != 0) {
    return Status::NotFound("Get: no such key");
  }
  return GetByIndex(pos);
}

Result<QueryProof> AdsSp::GetByIndex(size_t index) const {
  if (index >= records_.size()) {
    return Status::InvalidArgument("GetByIndex: out of range");
  }
  QueryProof proof;
  proof.record = records_[index];
  proof.index = index;
  proof.capacity = tree_.Capacity();
  proof.path = tree_.ProveLeaf(index);
  return proof;
}

Result<AbsenceProof> AdsSp::ProveAbsent(ByteSpan key) const {
  const size_t pos = LowerBound(key);
  if (pos < records_.size() && Compare(records_[pos].key, key) == 0) {
    return Status::FailedPrecondition("ProveAbsent: key exists");
  }

  AbsenceProof proof;
  proof.capacity = tree_.Capacity();
  // Window: predecessor (if any) .. successor, or the padding leaf after
  // the last record when the tree has one: a full tree proves tail-absence
  // by window position. An empty store proves leaf 0 is the padding
  // marker; contiguity implies the store is empty.
  proof.lo = (pos == 0) ? 0 : pos - 1;
  if (pos > 0) proof.boundary.push_back(records_[pos - 1]);
  if (pos < records_.size()) {
    proof.boundary.push_back(records_[pos]);
  } else {
    proof.empty_tail = records_.size() < tree_.Capacity();
  }
  proof.range = tree_.ProveRange(
      proof.lo, proof.boundary.size() + (proof.empty_tail ? 1 : 0));
  if (absence_tamper_) absence_tamper_(proof);
  return proof;
}

Result<ScanProof> AdsSp::Scan(ByteSpan start, ByteSpan end) const {
  if (!end.empty() && Compare(start, end) > 0) {
    return Status::InvalidArgument("Scan: start > end");
  }
  const size_t first = LowerBound(start);
  size_t last = records_.size();  // one past the final match
  if (!end.empty()) last = LowerBound(end);

  ScanProof proof;
  proof.capacity = tree_.Capacity();
  proof.records.assign(records_.begin() + static_cast<long>(first),
                       records_.begin() + static_cast<long>(last));

  size_t window_lo = first;
  size_t window_hi = last;  // exclusive
  if (first > 0) {
    proof.left_neighbor = records_[first - 1];
    window_lo = first - 1;
  }
  if (last < records_.size()) {
    proof.right_neighbor = records_[last];
    window_hi = last + 1;
  } else if (records_.size() < tree_.Capacity()) {
    proof.empty_tail = true;
    window_hi = records_.size() + 1;
  }
  proof.lo = window_lo;
  proof.range = tree_.ProveRange(window_lo, window_hi - window_lo);
  return proof;
}

Result<FeedRecord> AdsSp::Peek(ByteSpan key) const {
  const size_t pos = LowerBound(key);
  if (pos >= records_.size() || Compare(records_[pos].key, key) != 0) {
    return Status::NotFound("Peek: no such key");
  }
  return records_[pos];
}

void AdsSp::SetAdvisoryTier(ByteSpan key, tier::StorageTier t) {
  advisory_[Bytes(key.begin(), key.end())] = t;
}

tier::StorageTier AdsSp::EffectiveTier(ByteSpan key) const {
  auto it = advisory_.find(Bytes(key.begin(), key.end()));
  if (it != advisory_.end()) return it->second;
  const size_t pos = LowerBound(key);
  if (pos < records_.size() && Compare(records_[pos].key, key) == 0) {
    return tier::FromReplState(records_[pos].state);
  }
  return tier::StorageTier::kOffchain;
}

void AdsSp::TamperValueForTesting(ByteSpan key, ByteSpan forged_value) {
  const size_t pos = LowerBound(key);
  if (pos >= records_.size() || Compare(records_[pos].key, key) != 0) return;
  records_[pos].value.assign(forged_value.begin(), forged_value.end());
  // Tree deliberately NOT updated: the forged record will fail audit paths.
}

void AdsSp::ForkForTesting(ByteSpan key, ByteSpan forged_value) {
  const size_t pos = LowerBound(key);
  if (pos >= records_.size() || Compare(records_[pos].key, key) != 0) return;
  records_[pos].value.assign(forged_value.begin(), forged_value.end());
  tree_.SetLeaf(pos, records_[pos].LeafHash());  // consistent forged tree
}

void AdsSp::OmitForTesting(ByteSpan key) {
  const size_t pos = LowerBound(key);
  if (pos >= records_.size() || Compare(records_[pos].key, key) != 0) return;
  // Every leaf after the omitted one shifts down by one: splice the tail.
  std::vector<Hash256> tail;
  tail.reserve(records_.size() - pos - 1);
  for (size_t i = pos + 1; i < records_.size(); ++i) {
    tail.push_back(tree_.Leaf(i));
  }
  records_.erase(records_.begin() + static_cast<long>(pos));
  tree_.ReplaceSuffix(pos, tail);
  (void)db_->Delete(key);
}

}  // namespace grub::ads
