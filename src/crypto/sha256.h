// From-scratch SHA-256 (FIPS 180-4). No external crypto dependency.
//
// This is the single hash primitive for the whole repo: Merkle leaves/nodes,
// block hashes, storage-key derivation, and the MAC signer are all built on
// it. The streaming interface lets callers hash large records without
// intermediate copies.
//
// Two compression back ends sit under one interface: the portable scalar
// code, and the x86 SHA extensions (SHA-NI) where the CPU has them. The back
// end is chosen once, by cpuid, the first time anything is hashed; every
// caller above the compression function — streaming, padding, the one-shot
// and fixed-size entries — is shared code, so both back ends produce the same
// digests bit for bit. No compile flag or runtime switch selects them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/hash256.h"

namespace grub {

class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(ByteSpan data);
  /// Finalizes and returns the digest. The object must be Reset() before
  /// further use.
  Hash256 Finish();

  /// One-shot convenience.
  static Hash256 Digest(ByteSpan data);
  /// Digest of the concatenation of two spans (avoids a copy).
  static Hash256 Digest2(ByteSpan a, ByteSpan b);
  /// Digest of the 65-byte message `prefix || left || right` — the Merkle
  /// inner-node shape. Builds its two padded blocks on the stack and
  /// compresses them directly: no streaming state, no buffer copies.
  static Hash256 DigestNode(uint8_t prefix, const Hash256& left,
                            const Hash256& right);

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// HMAC-SHA256 (RFC 2104).
Hash256 HmacSha256(ByteSpan key, ByteSpan message);

// Compression back ends, exposed so tests can run each one directly (the
// differential test holds SHA-NI to the scalar code on every run). Nothing
// else should call these: Sha256 dispatches on its own.
namespace sha256_internal {

/// Folds `blocks` consecutive 64-byte message blocks into `state`.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                            size_t blocks);

/// The portable back end, compiled on every target.
void CompressScalar(uint32_t state[8], const uint8_t* data, size_t blocks);

/// The SHA-NI back end, or nullptr when this build is not x86 or this CPU
/// lacks SHA, SSSE3 or SSE4.1.
CompressFn ShaNiCompress();

/// The back end Sha256 uses: ShaNiCompress() when available, else
/// CompressScalar. Chosen once.
CompressFn ActiveCompress();

}  // namespace sha256_internal

}  // namespace grub
