#include "grub/store_api.h"

namespace grub::core {

void GrubStore::Load(const std::vector<KV>& records) {
  std::vector<std::pair<Bytes, Bytes>> pairs;
  pairs.reserve(records.size());
  for (const auto& kv : records) pairs.emplace_back(kv.key, kv.value);
  system_.Preload(pairs);
}

bool GrubStore::gPuts(const std::vector<KV>& kvs) {
  for (const auto& kv : kvs) {
    system_.Write(kv.key, kv.value);
  }
  system_.EndEpoch();
  return true;
}

void GrubStore::DrainReceived(const Callback& cb, size_t already_delivered,
                              size_t misses_before) {
  const auto& received = system_.Consumer().received();
  for (size_t i = already_delivered; i < received.size(); ++i) {
    cb(received[i].first, received[i].second, true);
  }
  const uint64_t misses = system_.Consumer().misses_received();
  for (uint64_t i = misses_before; i < misses; ++i) {
    cb({}, {}, false);
  }
}

void GrubStore::gGet(const Bytes& key, Callback cb) {
  const size_t delivered = system_.Consumer().received().size();
  const size_t misses = system_.Consumer().misses_received();
  system_.ReadNow(key);
  DrainReceived(cb, delivered, misses);
}

void GrubStore::gScan(const Bytes& start, const Bytes& end, Callback cb) {
  const size_t delivered = system_.Consumer().received().size();
  const size_t misses = system_.Consumer().misses_received();
  system_.Consumer().QueueScan(start, end);
  chain::Transaction tx;
  tx.from = system_.UserAccount();
  tx.to = system_.ConsumerAddress();
  tx.function = ConsumerContract::kRunFn;
  tx.calldata = ConsumerContract::EncodeRun(1);
  system_.Chain().SubmitAndMine(std::move(tx));
  system_.Daemon().PollAndServe();
  DrainReceived(cb, delivered, misses);
}

}  // namespace grub::core
