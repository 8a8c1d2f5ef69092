#include "grub/multi_feed.h"

#include <algorithm>

namespace grub::core {

MultiFeedSystem::MultiFeedSystem(chain::ChainParams params) : chain_(params) {}

MultiFeedSystem::~MultiFeedSystem() = default;

size_t MultiFeedSystem::AddFeed(std::string name, SystemOptions options,
                                std::unique_ptr<ReplicationPolicy> policy) {
  feeds_.push_back(Tenant{
      std::move(name),
      std::make_unique<GrubSystem>(chain_, feeds_.size(), std::move(options),
                                   std::move(policy)),
      {}});
  return feeds_.size() - 1;
}

void MultiFeedSystem::DriveAll(const std::vector<workload::Trace>& traces) {
  const size_t n = std::min(feeds_.size(), traces.size());
  std::vector<size_t> cursor(n, 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < n; ++i) {
      if (cursor[i] >= traces[i].size()) continue;
      Feed(i).DriveStep(traces[i], cursor[i]);
      progressed = true;
    }
  }
  // Close every feed's partial group and epoch.
  for (size_t i = 0; i < n; ++i) {
    for (const EpochGas& epoch : Feed(i).FinishDrive()) {
      feeds_[i].epochs.push_back(epoch);
    }
  }
}

std::vector<FeedStats> MultiFeedSystem::Stats() const {
  std::vector<FeedStats> stats;
  stats.reserve(feeds_.size());
  for (const Tenant& feed : feeds_) {
    FeedStats s;
    s.name = feed.name;
    s.manager_gas = chain_.GasUsedBy(feed.system->ManagerAddress());
    s.consumer_gas = chain_.GasUsedBy(feed.system->ConsumerAddress());
    s.gas = s.manager_gas + s.consumer_gas;
    for (const EpochGas& epoch : feed.epochs) s.ops += epoch.ops;
    s.epochs = feed.epochs.size();
    s.shards = feed.system->Shards().Count();
    s.per_shard_update_gas = feed.system->Do().PerShardUpdateGas();
    stats.push_back(std::move(s));
  }
  return stats;
}

}  // namespace grub::core
