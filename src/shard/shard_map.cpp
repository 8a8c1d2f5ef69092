#include "shard/shard_map.h"

#include <algorithm>
#include <stdexcept>

namespace grub::shard {

ShardMap::ShardMap(std::vector<Bytes> boundaries)
    : boundaries_(std::move(boundaries)) {
  for (size_t i = 0; i < boundaries_.size(); ++i) {
    if (boundaries_[i].empty()) {
      throw std::invalid_argument("ShardMap: empty boundary");
    }
    if (i > 0 && Compare(boundaries_[i - 1], boundaries_[i]) >= 0) {
      throw std::invalid_argument("ShardMap: boundaries not strictly sorted");
    }
  }
}

ShardMap ShardMap::Uniform(uint32_t count) {
  if (count == 0) throw std::invalid_argument("ShardMap::Uniform: count == 0");
  std::vector<Bytes> boundaries;
  boundaries.reserve(count - 1);
  for (uint32_t i = 1; i < count; ++i) {
    const uint64_t value = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(i) << 64) / count);
    Bytes boundary(8);
    for (size_t b = 0; b < 8; ++b) {
      boundary[b] = static_cast<uint8_t>(value >> (56 - 8 * b));
    }
    boundaries.push_back(std::move(boundary));
  }
  return ShardMap(std::move(boundaries));
}

uint32_t ShardMap::ShardOf(ByteSpan key) const {
  // Number of boundaries <= key == index of the first boundary > key.
  auto it = std::upper_bound(
      boundaries_.begin(), boundaries_.end(), key,
      [](ByteSpan k, const Bytes& b) { return Compare(k, b) < 0; });
  return static_cast<uint32_t>(it - boundaries_.begin());
}

const Bytes& ShardMap::LowerBoundOf(uint32_t s) const {
  static const Bytes kEmpty;
  if (s == 0) return kEmpty;
  if (s > boundaries_.size()) {
    throw std::out_of_range("ShardMap::LowerBoundOf: no such shard");
  }
  return boundaries_[s - 1];
}

Bytes ShardMap::UpperBoundOf(uint32_t s) const {
  if (s >= boundaries_.size()) {
    if (s + 1 > Count()) {
      throw std::out_of_range("ShardMap::UpperBoundOf: no such shard");
    }
    return Bytes{};  // last shard: unbounded
  }
  return boundaries_[s];
}

std::string ShardMap::Describe() const {
  std::string out = "shards=" + std::to_string(Count());
  if (!boundaries_.empty()) {
    out += " boundaries=[";
    for (size_t i = 0; i < boundaries_.size(); ++i) {
      if (i != 0) out += ",";
      out += ToString(boundaries_[i]);
    }
    out += "]";
  }
  return out;
}

}  // namespace grub::shard
