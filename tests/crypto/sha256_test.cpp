// SHA-256 against FIPS/NIST vectors, streaming equivalence, and the HMAC
// RFC 4231 vectors — the integrity of every proof in the system rests here.
// The Sha256Backend suite holds the compression back ends to each other:
// the scalar code is run directly on every CPU, so the fallback is never
// dead code, and the SHA-NI code is checked against it where the CPU has it.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "telemetry/profile.h"

namespace grub {
namespace {

using sha256_internal::CompressFn;
using sha256_internal::CompressScalar;

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(Sha256::Digest({}).Hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::Digest(ToBytes("abc")).Hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Digest(
          ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .Hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finish().Hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes = exactly one block; padding spills into a second block.
  Bytes data(64, 'x');
  Sha256 streaming;
  streaming.Update(ByteSpan(data.data(), 32));
  streaming.Update(ByteSpan(data.data() + 32, 32));
  EXPECT_EQ(streaming.Finish(), Sha256::Digest(data));
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: padding fits in one block; 56: needs an extra block.
  EXPECT_EQ(Sha256::Digest(Bytes(55, 'y')),
            Sha256::Digest(Bytes(55, 'y')));
  EXPECT_NE(Sha256::Digest(Bytes(55, 'y')), Sha256::Digest(Bytes(56, 'y')));
}

TEST(Sha256, Digest2MatchesConcatenation) {
  Bytes a = ToBytes("hello "), b = ToBytes("world");
  EXPECT_EQ(Sha256::Digest2(a, b), Sha256::Digest(ToBytes("hello world")));
}

class Sha256StreamingTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256StreamingTest, ChunkedEqualsOneShot) {
  const size_t total = 257;
  Bytes data(total);
  for (size_t i = 0; i < total; ++i) data[i] = static_cast<uint8_t>(i * 31);

  const size_t chunk = GetParam();
  Sha256 streaming;
  for (size_t off = 0; off < total; off += chunk) {
    streaming.Update(ByteSpan(data.data() + off, std::min(chunk, total - off)));
  }
  EXPECT_EQ(streaming.Finish(), Sha256::Digest(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha256StreamingTest,
                         ::testing::Values(1, 3, 7, 13, 31, 63, 64, 65, 100,
                                           256, 257));

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HmacSha256(key, ToBytes("Hi There")).Hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"))
          .Hex(),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes message(50, 0xdd);
  EXPECT_EQ(HmacSha256(key, message).Hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231LongKey) {
  // Keys longer than the block size are hashed first.
  Bytes key(131, 0xaa);
  EXPECT_EQ(HmacSha256(key, ToBytes("Test Using Larger Than Block-Size Key - "
                                    "Hash Key First"))
                .Hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeySensitivity) {
  Bytes message = ToBytes("same message");
  EXPECT_NE(HmacSha256(ToBytes("key1"), message),
            HmacSha256(ToBytes("key2"), message));
}

// FIPS 180-4 digest over one back end alone: padding done here, every block
// compressed by `compress`, none of Sha256's own code involved.
Hash256 DigestWith(CompressFn compress, ByteSpan message) {
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / 64);
  Hash256 out;
  for (size_t i = 0; i < 32; ++i) {
    out.bytes[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

Bytes RandomBytes(Rng& rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

Hash256 RandomHash(Rng& rng) {
  Hash256 h;
  for (auto& b : h.bytes) b = static_cast<uint8_t>(rng.NextU64());
  return h;
}

// The SHA-NI back end, or a skip with the reason.
#define REQUIRE_SHA_NI(fn)                                           \
  const CompressFn fn = sha256_internal::ShaNiCompress();            \
  if (fn == nullptr) {                                               \
    GTEST_SKIP() << "no SHA-NI back end on this build/CPU; the "     \
                    "scalar half of the differential still runs";    \
  }

TEST(Sha256Backend, ActiveBackendIsShaNiWhenAvailable) {
  const CompressFn sha_ni = sha256_internal::ShaNiCompress();
  EXPECT_EQ(sha256_internal::ActiveCompress(),
            sha_ni != nullptr ? sha_ni : &CompressScalar);
  // Chosen once: repeated queries agree.
  EXPECT_EQ(sha256_internal::ActiveCompress(),
            sha256_internal::ActiveCompress());
}

TEST(Sha256Backend, ScalarMatchesFipsVectors) {
  EXPECT_EQ(DigestWith(CompressScalar, {}).Hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestWith(CompressScalar, ToBytes("abc")).Hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      DigestWith(CompressScalar,
                 ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                         "nopq"))
          .Hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Backend, ShaNiMatchesFipsVectors) {
  REQUIRE_SHA_NI(sha_ni);
  EXPECT_EQ(DigestWith(sha_ni, {}).Hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestWith(sha_ni, ToBytes("abc")).Hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Backend, ScalarMatchesPublicDigestForEveryLength0To300) {
  // The public path runs the active back end through the shared streaming
  // and padding code; the reference runs the scalar compression alone.
  Rng rng(0x5ca1a);
  for (size_t n = 0; n <= 300; ++n) {
    const Bytes data = RandomBytes(rng, n);
    ASSERT_EQ(Sha256::Digest(data), DigestWith(CompressScalar, data))
        << "length " << n;
  }
}

TEST(Sha256Backend, ShaNiMatchesScalarForEveryLength0To300) {
  REQUIRE_SHA_NI(sha_ni);
  Rng rng(0x5a1);
  for (size_t n = 0; n <= 300; ++n) {
    const Bytes data = RandomBytes(rng, n);
    ASSERT_EQ(DigestWith(sha_ni, data), DigestWith(CompressScalar, data))
        << "length " << n;
  }
}

TEST(Sha256Backend, ShaNiMatchesScalarOnNodeAndLeafShapes) {
  REQUIRE_SHA_NI(sha_ni);
  // 65 B = 0x01 || left || right (inner node); 81 B = 0x00 || 80-B header
  // (a BtcRelay leaf). Both cross into a second block.
  Rng rng(0xbeef);
  for (size_t n : {size_t{65}, size_t{81}}) {
    for (int i = 0; i < 2000; ++i) {
      const Bytes data = RandomBytes(rng, n);
      ASSERT_EQ(DigestWith(sha_ni, data), DigestWith(CompressScalar, data))
          << "length " << n << " sample " << i;
    }
  }
}

TEST(Sha256Backend, ShaNiMatchesScalarOnArbitraryStateAndBlockRuns) {
  REQUIRE_SHA_NI(sha_ni);
  // Raw compression from a random chaining value over runs of 1..8 blocks:
  // catches a lane-order slip in the state load/store that the fixed IV
  // alone could mask, and a multi-block run that loses state between blocks.
  Rng rng(0xc0ffee);
  for (int i = 0; i < 500; ++i) {
    uint32_t scalar[8], fast[8];
    for (auto& word : scalar) word = static_cast<uint32_t>(rng.NextU64());
    std::memcpy(fast, scalar, sizeof(fast));
    const size_t blocks = 1 + rng.NextBounded(8);
    const Bytes data = RandomBytes(rng, 64 * blocks);
    CompressScalar(scalar, data.data(), blocks);
    sha_ni(fast, data.data(), blocks);
    ASSERT_EQ(0, std::memcmp(scalar, fast, sizeof(fast))) << "sample " << i;
  }
}

TEST(Sha256Backend, StreamingSplitsMatchScalar) {
  // Random messages fed to the active back end in up to four pieces: every
  // buffer/whole-block/tail combination of Update against the scalar
  // one-shot reference.
  Rng rng(0x5711);
  for (int i = 0; i < 2000; ++i) {
    const Bytes data = RandomBytes(rng, rng.NextBounded(301));
    Sha256 streaming;
    size_t off = 0;
    for (int piece = 0; piece < 3 && off < data.size(); ++piece) {
      const size_t take = rng.NextBounded(data.size() - off + 1);
      streaming.Update(ByteSpan(data.data() + off, take));
      off += take;
    }
    streaming.Update(ByteSpan(data.data() + off, data.size() - off));
    ASSERT_EQ(streaming.Finish(), DigestWith(CompressScalar, data))
        << "sample " << i << " length " << data.size();
  }
}

TEST(Sha256Backend, DigestNodeMatchesDigest2OfTheSameBytes) {
  Rng rng(0x40de);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t prefix = static_cast<uint8_t>(rng.NextU64());
    const Hash256 left = RandomHash(rng), right = RandomHash(rng);
    Bytes message{prefix};
    message.insert(message.end(), left.bytes.begin(), left.bytes.end());
    message.insert(message.end(), right.bytes.begin(), right.bytes.end());
    const Hash256 node = Sha256::DigestNode(prefix, left, right);
    ASSERT_EQ(node, Sha256::Digest2(ByteSpan(&prefix, 1),
                                    ByteSpan(message.data() + 1, 64)))
        << "sample " << i;
    ASSERT_EQ(node, DigestWith(CompressScalar, message)) << "sample " << i;
  }
  // The Merkle inner node is exactly this entry with the 0x01 prefix.
  const Hash256 l = Hash256::FromU64(1), r = Hash256::FromU64(2);
  EXPECT_EQ(MerkleTree::HashNode(l, r), Sha256::DigestNode(0x01, l, r));
}

#if GRUB_TELEMETRY
// The sha256.block probe counts compressions exactly, at the one dispatch
// point, including the node entry that bypasses Digest.
TEST(Sha256Probe, CountsEveryCompressedBlockExactly) {
  using telemetry::ProbeSite;
  using telemetry::ProfileRegistry;
  auto blocks_for = [](auto&& hash) {
    ProfileRegistry::Reset();
    ProfileRegistry::Enable(true);
    hash();
    ProfileRegistry::Enable(false);
    return ProfileRegistry::Snapshot()[static_cast<size_t>(
        ProbeSite::kSha256Block)];
  };
  const Hash256 l = Hash256::FromU64(1), r = Hash256::FromU64(2);
  const auto node = blocks_for([&] { MerkleTree::HashNode(l, r); });
  EXPECT_STREQ(node.name, "sha256.block");
  EXPECT_EQ(node.count, 2u);
  EXPECT_EQ(node.total_ns, 0u);  // count only: never timed
  const std::pair<size_t, uint64_t> cases[] = {{0, 1}, {55, 1}, {56, 2},
                                               {64, 2}, {200, 4}};
  for (const auto& [length, expected] : cases) {
    const Bytes data(length, 0x61);
    EXPECT_EQ(blocks_for([&] { Sha256::Digest(data); }).count, expected)
        << "Digest of " << length << " bytes";
  }
  // sha256.digest keeps counting Digest calls, not blocks.
  ProfileRegistry::Reset();
  ProfileRegistry::Enable(true);
  Sha256::Digest(Bytes(200, 0x61));
  ProfileRegistry::Enable(false);
  EXPECT_EQ(ProfileRegistry::Snapshot()[static_cast<size_t>(
                ProbeSite::kSha256Digest)]
                .count,
            1u);
}
#endif

}  // namespace
}  // namespace grub
