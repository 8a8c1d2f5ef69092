// Multi-feed tenancy: several independent GRuB data feeds sharing ONE chain.
//
// Real deployments co-locate feeds (a price oracle, a block-header relay, a
// KV application) on the same blockchain. A feed here is a GrubSystem built
// against the shared chain: its own StorageManagerContract + consumer + DO
// control plane + SP quorum, shard layout and replication policy, while
// every transaction lands in the shared chain's blocks and Gas ledger.
// Feeds are isolated by construction (disjoint contracts, disjoint accounts,
// disjoint shard sets), and per-feed Gas is attributed exactly via
// Blockchain::GasUsedBy on each feed's two contract addresses — internal
// calls (gGet from a consumer, callbacks from a deliver) meter into the
// outer transaction's target, which is always one of the owning feed's
// contracts.
//
// DriveAll interleaves the feeds' traces round-robin, one GrubSystem::
// DriveStep (one transaction group) at a time, so blocks mix feeds the way a
// shared chain would.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "grub/system.h"
#include "workload/trace.h"

namespace grub::core {

/// Per-feed results after driving.
struct FeedStats {
  std::string name;
  uint64_t gas = 0;  // manager + consumer Gas (exact, via GasUsedBy)
  uint64_t manager_gas = 0;
  uint64_t consumer_gas = 0;
  size_t ops = 0;
  size_t epochs = 0;
  size_t shards = 0;
  /// Cumulative update() Gas per shard (the DO's receipts).
  std::vector<uint64_t> per_shard_update_gas;

  double PerOp() const {
    return ops == 0 ? 0.0 : static_cast<double>(gas) / static_cast<double>(ops);
  }
};

class MultiFeedSystem {
 public:
  /// The shared chain's settings (block timing, Gas schedule, price
  /// schedule) hold for every feed.
  explicit MultiFeedSystem(chain::ChainParams params = {});
  ~MultiFeedSystem();

  /// Deploys one feed on the shared chain and returns its index. `options`
  /// are the feed's own (see the borrowed-chain GrubSystem constructor for
  /// what it rejects). Call before Preload/Drive.
  size_t AddFeed(std::string name, SystemOptions options,
                 std::unique_ptr<ReplicationPolicy> policy);

  /// Bulk-loads one feed's records (unmetered genesis + one update()).
  void Preload(size_t feed,
               const std::vector<std::pair<Bytes, Bytes>>& records) {
    Feed(feed).Preload(records);
  }
  /// Zeroes the chain's Gas counters; call once after all preloads.
  void ResetGasCounters() { chain_.ResetGasCounters(); }

  /// Drives one trace per feed (index-aligned; a feed may have an empty
  /// trace), interleaving round-robin one transaction group at a time.
  void DriveAll(const std::vector<workload::Trace>& traces);

  /// Per-feed Gas/ops totals: Gas since the last ResetGasCounters, ops and
  /// epochs over every DriveAll.
  std::vector<FeedStats> Stats() const;
  /// The feed's per-epoch Gas series over every DriveAll; it counts only the
  /// feed's own contracts, so the series sums to the feed's Stats() Gas.
  const std::vector<EpochGas>& Epochs(size_t feed) const {
    return feeds_[feed].epochs;
  }

  size_t FeedCount() const { return feeds_.size(); }
  chain::Blockchain& Chain() { return chain_; }
  GrubSystem& Feed(size_t feed) { return *feeds_[feed].system; }
  const GrubSystem& Feed(size_t feed) const { return *feeds_[feed].system; }
  ConsumerContract& Consumer(size_t feed) { return Feed(feed).Consumer(); }
  const shard::ShardMap& Shards(size_t feed) const {
    return Feed(feed).Shards();
  }
  chain::Address ManagerAddress(size_t feed) const {
    return Feed(feed).ManagerAddress();
  }
  SpQuorum& Quorum(size_t feed) { return Feed(feed).Quorum(); }
  const SpQuorum& Quorum(size_t feed) const { return Feed(feed).Quorum(); }

 private:
  struct Tenant {
    std::string name;
    std::unique_ptr<GrubSystem> system;
    std::vector<EpochGas> epochs;
  };

  chain::Blockchain chain_;
  std::vector<Tenant> feeds_;
};

}  // namespace grub::core
