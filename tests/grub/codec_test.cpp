// Wire codecs: deliver entries and proofs round-trip exactly, and the
// declared calldata sizes match reality (Gas fidelity depends on it).
#include <gtest/gtest.h>

#include "ads/sp.h"
#include "grub/codec.h"
#include "grub/storage_manager.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;

ads::QueryProof SampleQueryProof() {
  ads::AdsSp sp;
  std::vector<ads::FeedRecord> records;
  for (uint64_t i = 0; i < 9; ++i) {
    records.push_back(
        ads::FeedRecord{MakeKey(i), Bytes(40, static_cast<uint8_t>(i)),
                        i % 2 ? ads::ReplState::kR : ads::ReplState::kNR});
  }
  sp.BulkLoad(records);
  return sp.Get(MakeKey(4)).value();
}

ads::AbsenceProof SampleAbsenceProof() {
  ads::AdsSp sp;
  std::vector<ads::FeedRecord> records;
  for (uint64_t i = 0; i < 5; ++i) {
    records.push_back(
        ads::FeedRecord{MakeKey(i * 2), ToBytes("v"), ads::ReplState::kNR});
  }
  sp.BulkLoad(records);
  return sp.ProveAbsent(MakeKey(5)).value();
}

TEST(Codec, QueryProofRoundTrip) {
  auto proof = SampleQueryProof();
  chain::AbiWriter w;
  EncodeQueryProof(w, proof);
  Bytes encoded = w.Take();
  chain::AbiReader r(encoded);
  auto decoded = DecodeQueryProof(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->record, proof.record);
  EXPECT_EQ(decoded->index, proof.index);
  EXPECT_EQ(decoded->capacity, proof.capacity);
  EXPECT_EQ(decoded->path, proof.path);
}

TEST(Codec, AbsenceProofRoundTrip) {
  auto proof = SampleAbsenceProof();
  chain::AbiWriter w;
  EncodeAbsenceProof(w, proof);
  Bytes encoded = w.Take();
  chain::AbiReader r(encoded);
  auto decoded = DecodeAbsenceProof(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->boundary, proof.boundary);
  EXPECT_EQ(decoded->empty_tail, proof.empty_tail);
  EXPECT_EQ(decoded->lo, proof.lo);
  EXPECT_EQ(decoded->capacity, proof.capacity);
  EXPECT_EQ(decoded->range, proof.range);
}

TEST(Codec, DeliverEntryPresentRoundTrip) {
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kQuery;
  entry.query = SampleQueryProof();
  entry.key = entry.query.record.key;
  entry.callback_contract = 42;
  entry.callback_function = "onData";
  entry.repeats = 3;
  entry.replicate_hint = true;

  chain::AbiWriter w;
  EncodeDeliverEntry(w, entry);
  Bytes encoded = w.Take();
  chain::AbiReader r(encoded);
  auto decoded = DecodeDeliverEntry(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->present());
  EXPECT_EQ(decoded->key, entry.key);
  EXPECT_EQ(decoded->query.record, entry.query.record);
  EXPECT_EQ(decoded->callback_contract, 42u);
  EXPECT_EQ(decoded->callback_function, "onData");
  EXPECT_EQ(decoded->repeats, 3u);
  EXPECT_TRUE(decoded->replicate_hint);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Codec, DeliverEntryAbsentRoundTrip) {
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kAbsence;
  entry.absence = SampleAbsenceProof();
  entry.key = MakeKey(5);
  entry.callback_contract = 7;
  entry.callback_function = "onMiss";

  chain::AbiWriter w;
  EncodeDeliverEntry(w, entry);
  Bytes encoded = w.Take();
  chain::AbiReader r(encoded);
  auto decoded = DecodeDeliverEntry(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->present());
  EXPECT_EQ(decoded->key, MakeKey(5));
  EXPECT_EQ(decoded->absence.boundary, entry.absence.boundary);
}

TEST(Codec, BatchedDeliverDecodesSequentially) {
  DeliverEntry a;
  a.kind = DeliverEntry::Kind::kQuery;
  a.query = SampleQueryProof();
  a.key = a.query.record.key;
  DeliverEntry b;
  b.kind = DeliverEntry::Kind::kAbsence;
  b.absence = SampleAbsenceProof();
  b.key = MakeKey(5);

  Bytes calldata = StorageManagerContract::EncodeDeliver({a, b});
  chain::AbiReader r(calldata);
  EXPECT_EQ(r.U64(), 2u);
  auto first = DecodeDeliverEntry(r);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->present());
  auto second = DecodeDeliverEntry(r);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->present());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Codec, TruncatedDeliverEntryFailsCleanly) {
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kQuery;
  entry.query = SampleQueryProof();
  entry.key = entry.query.record.key;
  chain::AbiWriter w;
  EncodeDeliverEntry(w, entry);
  Bytes encoded = w.Take();
  encoded.resize(encoded.size() / 2);
  chain::AbiReader r(encoded);
  EXPECT_THROW((void)DecodeDeliverEntry(r), std::out_of_range);
}

TEST(Codec, UpdateCalldataIsCompact) {
  // The digest-only update (the common case for NR batches) stays small:
  // the cost model rewards exactly this.
  Bytes calldata =
      StorageManagerContract::EncodeUpdate(Hash256::FromU64(1), 9, {}, {});
  EXPECT_LE(calldata.size(), 64u);  // digest + epoch + two zero counts
}

TEST(Codec, DeliverEntryDigestRoundTrip) {
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kDigest;
  entry.key = MakeKey(3);
  entry.value = Bytes(100, 0xab);
  entry.callback_contract = 9;
  entry.callback_function = "onData";
  entry.repeats = 2;

  chain::AbiWriter w;
  EncodeDeliverEntry(w, entry);
  Bytes encoded = w.Take();
  chain::AbiReader r(encoded);
  auto decoded = DecodeDeliverEntry(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, DeliverEntry::Kind::kDigest);
  EXPECT_FALSE(decoded->present());
  EXPECT_EQ(decoded->key, entry.key);
  EXPECT_EQ(decoded->value, entry.value);
  EXPECT_EQ(decoded->callback_contract, 9u);
  EXPECT_EQ(decoded->callback_function, "onData");
  EXPECT_EQ(decoded->repeats, 2u);
  EXPECT_TRUE(r.AtEnd());
}

// ---- the shared calldata-size helpers: every estimate is asserted against
// the bytes the matching Append* encoder actually produces ----

TEST(Codec, EncodedRecordBytesMatchesBlobEncoding) {
  for (size_t value_bytes : {size_t{0}, size_t{1}, size_t{32}, size_t{257}}) {
    ads::FeedRecord record{MakeKey(7), Bytes(value_bytes, 0x5a),
                           ads::ReplState::kR};
    chain::AbiWriter w;
    w.Blob(record.Serialize());
    EXPECT_EQ(w.Take().size(), EncodedRecordBytes(record))
        << "value_bytes = " << value_bytes;
  }
}

TEST(Codec, ReplicationSuffixBytesMatchesEncoding) {
  std::vector<ads::FeedRecord> replicated = {
      {MakeKey(1), Bytes(40, 0x01), ads::ReplState::kR},
      {MakeKey(2), Bytes(3, 0x02), ads::ReplState::kR},
  };
  std::vector<Bytes> evictions = {MakeKey(3), ToBytes("longer-key-here")};
  chain::AbiWriter w;
  AppendReplicationSuffix(w, replicated, evictions);
  EXPECT_EQ(w.Take().size(), ReplicationSuffixBytes(replicated, evictions));

  chain::AbiWriter empty;
  AppendReplicationSuffix(empty, {}, {});
  EXPECT_EQ(empty.Take().size(), ReplicationSuffixBytes({}, {}));
}

TEST(Codec, TierSuffixBytesMatchesEncodingAndEmptyAppendsNothing) {
  TierSuffix suffix;
  suffix.entries.push_back(
      {tier::StorageTier::kLog,
       ads::FeedRecord{MakeKey(1), Bytes(64, 0x11), ads::ReplState::kNR}});
  suffix.entries.push_back(
      {tier::StorageTier::kCalldata,
       ads::FeedRecord{MakeKey(2), Bytes(5, 0x22), ads::ReplState::kNR}});
  suffix.unpins = {MakeKey(9)};

  chain::AbiWriter w;
  AppendTierSuffix(w, suffix);
  EXPECT_EQ(w.Take().size(), TierSuffixBytes(suffix));

  // The empty suffix is the byte-identity guarantee: nothing appended,
  // nothing counted.
  chain::AbiWriter empty;
  AppendTierSuffix(empty, TierSuffix{});
  EXPECT_TRUE(empty.Take().empty());
  EXPECT_EQ(TierSuffixBytes(TierSuffix{}), 0u);
}

TEST(Codec, UpdateCalldataBytesMatchesBothEncoders) {
  std::vector<ads::FeedRecord> replicated = {
      {MakeKey(1), Bytes(33, 0x01), ads::ReplState::kR}};
  std::vector<Bytes> evictions = {MakeKey(4)};
  TierSuffix tiered;
  tiered.entries.push_back(
      {tier::StorageTier::kLog,
       ads::FeedRecord{MakeKey(5), Bytes(80, 0x33), ads::ReplState::kNR}});
  tiered.unpins = {MakeKey(6)};

  // Unsharded layout, with and without a tier suffix.
  EXPECT_EQ(StorageManagerContract::EncodeUpdate(Hash256::FromU64(1), 3,
                                                 replicated, evictions)
                .size(),
            StorageManagerContract::UpdateCalldataBytes(0, replicated,
                                                        evictions, {}));
  EXPECT_EQ(StorageManagerContract::EncodeUpdate(Hash256::FromU64(1), 3,
                                                 replicated, evictions, tiered)
                .size(),
            StorageManagerContract::UpdateCalldataBytes(0, replicated,
                                                        evictions, tiered));

  // Sharded layout: the shard-root list adds 8 + 40 per root.
  std::vector<std::pair<uint64_t, Hash256>> roots = {
      {0, Hash256::FromU64(7)}, {3, Hash256::FromU64(8)}};
  EXPECT_EQ(StorageManagerContract::EncodeUpdateSharded(
                Hash256::FromU64(2), 4, roots, replicated, evictions, tiered)
                .size(),
            StorageManagerContract::UpdateCalldataBytes(roots.size(),
                                                        replicated, evictions,
                                                        tiered));
}

}  // namespace
}  // namespace grub::core
