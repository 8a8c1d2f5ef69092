#include "ads/record.h"

#include <array>

#include "crypto/sha256.h"

namespace grub::ads {

namespace {
std::array<uint8_t, 4> U32Le(size_t v) {
  return {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
          static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)};
}
}  // namespace

Hash256 FeedRecord::LeafHash() const {
  // Byte for byte the leaf prefix 0x00 followed by Serialize().
  const std::array<uint8_t, 2> head = {0x00, static_cast<uint8_t>(state)};
  Sha256 h;
  h.Update(head);
  h.Update(U32Le(key.size()));
  h.Update(key);
  h.Update(U32Le(value.size()));
  h.Update(value);
  return h.Finish();
}

Bytes FeedRecord::Serialize() const {
  Bytes out;
  out.reserve(SerializedBytes());
  out.push_back(static_cast<uint8_t>(state));
  Append(out, U32Le(key.size()));
  Append(out, key);
  Append(out, U32Le(value.size()));
  Append(out, value);
  return out;
}

Result<FeedRecord> FeedRecord::Deserialize(ByteSpan data) {
  auto need = [&](size_t pos, size_t n) { return pos + n <= data.size(); };
  auto get_u32 = [&](size_t& pos) {
    uint32_t v = static_cast<uint32_t>(data[pos]) |
                 (static_cast<uint32_t>(data[pos + 1]) << 8) |
                 (static_cast<uint32_t>(data[pos + 2]) << 16) |
                 (static_cast<uint32_t>(data[pos + 3]) << 24);
    pos += 4;
    return v;
  };

  if (data.empty()) return Status::InvalidArgument("FeedRecord: empty");
  FeedRecord record;
  size_t pos = 0;
  const uint8_t state = data[pos++];
  if (state > 1) return Status::InvalidArgument("FeedRecord: bad state byte");
  record.state = static_cast<ReplState>(state);

  if (!need(pos, 4)) return Status::InvalidArgument("FeedRecord: truncated");
  const uint32_t key_len = get_u32(pos);
  if (!need(pos, key_len)) return Status::InvalidArgument("FeedRecord: truncated key");
  record.key.assign(data.begin() + static_cast<long>(pos),
                    data.begin() + static_cast<long>(pos + key_len));
  pos += key_len;

  if (!need(pos, 4)) return Status::InvalidArgument("FeedRecord: truncated");
  const uint32_t val_len = get_u32(pos);
  if (!need(pos, val_len)) return Status::InvalidArgument("FeedRecord: truncated value");
  record.value.assign(data.begin() + static_cast<long>(pos),
                      data.begin() + static_cast<long>(pos + val_len));
  pos += val_len;

  if (pos != data.size()) {
    return Status::InvalidArgument("FeedRecord: trailing bytes");
  }
  return record;
}

}  // namespace grub::ads
