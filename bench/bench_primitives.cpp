// Microbenchmarks of the substrate primitives (google-benchmark): SHA-256,
// Merkle proofs and growth, the embedded KV store, the ADS write path, and
// simulated chain transactions.
// These gate performance regressions in the simulator itself — wall-clock,
// not Gas.
#include <benchmark/benchmark.h>

#include <optional>

#include "ads/do.h"
#include "ads/sp.h"
#include "chain/blockchain.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "kvstore/db.h"
#include "workload/trace.h"

namespace {

using namespace grub;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(64)->Arg(1024)->Arg(65536);

// One Merkle inner node (0x01 || left || right, two compressions): the unit
// every tree splice, audit path and on-chain proof check is made of.
void BM_MerkleHashNode(benchmark::State& state) {
  Hash256 left = Hash256::FromU64(1), right = Hash256::FromU64(2);
  for (auto _ : state) {
    left = MerkleTree::HashNode(left, right);
    benchmark::DoNotOptimize(left);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MerkleHashNode);

void BM_MerkleBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Hash256> leaves(n);
  for (size_t i = 0; i < n; ++i) leaves[i] = Hash256::FromU64(i);
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.Root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleBuild)->Arg(1024)->Arg(65536);

void BM_MerkleProveVerify(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Hash256> leaves(n);
  for (size_t i = 0; i < n; ++i) leaves[i] = Hash256::FromU64(i);
  MerkleTree tree(leaves);
  const Hash256 root = tree.Root();
  size_t i = 0;
  for (auto _ : state) {
    auto proof = tree.ProveLeaf(i % n);
    benchmark::DoNotOptimize(
        MerkleTree::VerifyLeaf(root, leaves[i % n], i % n, tree.Capacity(),
                               proof));
    ++i;
  }
}
BENCHMARK(BM_MerkleProveVerify)->Arg(1024)->Arg(65536);

void BM_MerkleUpdateLeaf(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Hash256> leaves(n);
  for (size_t i = 0; i < n; ++i) leaves[i] = Hash256::FromU64(i);
  MerkleTree tree(leaves);
  size_t i = 0;
  for (auto _ : state) {
    tree.SetLeaf(i % n, Hash256::FromU64(i));
    ++i;
  }
  benchmark::DoNotOptimize(tree.Root());
}
BENCHMARK(BM_MerkleUpdateLeaf)->Arg(65536);

// Appending one leaf to a full 2^k tree doubles its capacity: the levels
// are resized in place and only the new leaf's path is hashed. Building the
// full tree is outside the timed region.
void BM_MerkleAppendAcrossDoubling(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Hash256> leaves(n);
  for (size_t i = 0; i < n; ++i) leaves[i] = Hash256::FromU64(i);
  const Hash256 extra = Hash256::FromU64(n);
  std::optional<MerkleTree> tree;
  for (auto _ : state) {
    state.PauseTiming();
    tree.emplace(leaves);
    state.ResumeTiming();
    tree->ReplaceSuffix(n, {&extra, 1});
    benchmark::DoNotOptimize(tree->Root());
  }
}
BENCHMARK(BM_MerkleAppendAcrossDoubling)->Arg(1024)->Arg(65536);

void BM_KVStorePut(benchmark::State& state) {
  auto db = kv::KVStore::Open(kv::Options{}, "").value();
  uint64_t i = 0;
  Bytes value(128, 0x7F);
  for (auto _ : state) {
    (void)db->Put(workload::MakeKey(i % 100000), value);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KVStorePut);

void BM_KVStoreGet(benchmark::State& state) {
  auto db = kv::KVStore::Open(kv::Options{}, "").value();
  Bytes value(128, 0x7F);
  for (uint64_t i = 0; i < 10000; ++i) (void)db->Put(workload::MakeKey(i), value);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(workload::MakeKey(i % 10000)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KVStoreGet);

void BM_KVStoreScan100(benchmark::State& state) {
  auto db = kv::KVStore::Open(kv::Options{}, "").value();
  Bytes value(128, 0x7F);
  for (uint64_t i = 0; i < 10000; ++i) (void)db->Put(workload::MakeKey(i), value);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Scan(workload::MakeKey(i % 9900), {}, 100));
    ++i;
  }
}
BENCHMARK(BM_KVStoreScan100);

void BM_AdsSpGetProof(benchmark::State& state) {
  ads::AdsSp sp;
  Bytes value(128, 0x11);
  std::vector<ads::FeedRecord> records;
  for (uint64_t i = 0; i < 4096; ++i) {
    records.push_back(
        ads::FeedRecord{workload::MakeKey(i), value, ads::ReplState::kNR});
  }
  sp.BulkLoad(records);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.Get(workload::MakeKey(i % 4096)));
    ++i;
  }
}
BENCHMARK(BM_AdsSpGetProof);

// The DO epoch of an append feed: a 32-key VerifiedBatchPut past the last
// record of a 2^16-record store — the SP's absence pre-proofs checked
// against the DO's mirror, the batch applied on both sides, roots compared.
// Each iteration appends 32 fresh keys, so the store keeps growing (one
// capacity doubling per 2^16 appended keys).
void BM_AdsDoAppendBatch(benchmark::State& state) {
  constexpr uint64_t kPreload = uint64_t{1} << 16;
  constexpr uint64_t kBatch = 32;
  const Bytes value(80, 0x42);  // one BtcRelay header
  ads::AdsSp sp;
  ads::AdsDo ads_do(ToBytes("do-key"));
  std::vector<ads::FeedRecord> records;
  for (uint64_t i = 0; i < kPreload; ++i) {
    records.push_back(
        ads::FeedRecord{workload::MakeKey(i), value, ads::ReplState::kNR});
  }
  ads_do.BulkLoad(sp, records);
  uint64_t next = kPreload;
  for (auto _ : state) {
    records.clear();
    for (uint64_t i = 0; i < kBatch; ++i) {
      records.push_back(ads::FeedRecord{workload::MakeKey(next++), value,
                                        ads::ReplState::kNR});
    }
    if (!ads_do.VerifiedBatchPut(sp, records).ok()) {
      state.SkipWithError("VerifiedBatchPut refused an honest SP");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_AdsDoAppendBatch);

// A contract that burns a fixed storage write (simulated tx throughput).
class TouchContract : public chain::Contract {
 public:
  Status Call(chain::CallContext& ctx, const std::string&,
              ByteSpan) override {
    ctx.Storage().SStore(Word::FromU64(1), Word::FromU64(++counter_));
    return Status::Ok();
  }

 private:
  uint64_t counter_ = 0;
};

void BM_ChainTransaction(benchmark::State& state) {
  chain::Blockchain chain;
  chain::Address addr = chain.Deploy(std::make_unique<TouchContract>());
  for (auto _ : state) {
    chain::Transaction tx;
    tx.from = 1;
    tx.to = addr;
    tx.function = "touch";
    benchmark::DoNotOptimize(chain.SubmitAndMine(std::move(tx)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ChainTransaction);

}  // namespace

BENCHMARK_MAIN();
