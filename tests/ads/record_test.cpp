// FeedRecord canonical encoding.
#include <gtest/gtest.h>

#include "ads/record.h"

namespace grub::ads {
namespace {

TEST(FeedRecord, SerializeRoundTrip) {
  FeedRecord record{ToBytes("key"), ToBytes("value"), ReplState::kR};
  auto decoded = FeedRecord::Deserialize(record.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, record);
}

TEST(FeedRecord, EmptyKeyAndValueRoundTrip) {
  FeedRecord record{{}, {}, ReplState::kNR};
  auto decoded = FeedRecord::Deserialize(record.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, record);
}

TEST(FeedRecord, SerializedBytesMatchesEncodingLength) {
  FeedRecord record{ToBytes("abcd"), Bytes(100, 1), ReplState::kNR};
  EXPECT_EQ(record.Serialize().size(), record.SerializedBytes());
}

TEST(FeedRecord, LeafHashBindsAllFields) {
  FeedRecord base{ToBytes("k"), ToBytes("v"), ReplState::kNR};
  FeedRecord other_key = base;
  other_key.key = ToBytes("K");
  FeedRecord other_value = base;
  other_value.value = ToBytes("V");
  FeedRecord other_state = base;
  other_state.state = ReplState::kR;
  EXPECT_NE(base.LeafHash(), other_key.LeafHash());
  EXPECT_NE(base.LeafHash(), other_value.LeafHash());
  EXPECT_NE(base.LeafHash(), other_state.LeafHash());
}

TEST(FeedRecord, LeafHashIsTheLeafHashOfTheEncoding) {
  // LeafHash streams the encoding instead of building it; the digest must
  // be the one MerkleTree::HashLeafData gives the serialized bytes, across
  // block boundaries of the streamed pieces.
  for (size_t key_len : {0u, 1u, 27u, 64u}) {
    for (size_t value_len : {0u, 32u, 55u, 56u, 80u, 1000u}) {
      for (ReplState state : {ReplState::kNR, ReplState::kR}) {
        FeedRecord r{Bytes(key_len, 0x4B), Bytes(value_len, 0x56), state};
        EXPECT_EQ(r.LeafHash(), MerkleTree::HashLeafData(r.Serialize()))
            << key_len << " " << value_len;
      }
    }
  }
}

TEST(FeedRecord, KeyValueBoundaryUnambiguous) {
  // ("ab", "c") and ("a", "bc") must hash differently (length prefixes).
  FeedRecord a{ToBytes("ab"), ToBytes("c"), ReplState::kNR};
  FeedRecord b{ToBytes("a"), ToBytes("bc"), ReplState::kNR};
  EXPECT_NE(a.LeafHash(), b.LeafHash());
}

TEST(FeedRecord, DeserializeRejectsMalformed) {
  EXPECT_FALSE(FeedRecord::Deserialize({}).ok());
  EXPECT_FALSE(FeedRecord::Deserialize(Bytes{9}).ok());  // bad state byte
  // Truncated key length.
  EXPECT_FALSE(FeedRecord::Deserialize(Bytes{0, 1, 0}).ok());
  // Key length exceeding payload.
  EXPECT_FALSE(FeedRecord::Deserialize(Bytes{0, 0xFF, 0, 0, 0}).ok());
  // Trailing garbage.
  FeedRecord record{ToBytes("k"), ToBytes("v"), ReplState::kNR};
  Bytes padded = record.Serialize();
  padded.push_back(0);
  EXPECT_FALSE(FeedRecord::Deserialize(padded).ok());
}

}  // namespace
}  // namespace grub::ads
