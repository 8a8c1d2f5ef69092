// GrubSystem: one assembled GRuB deployment (Fig. 4) plus the trace driver
// used by every experiment.
//
// Components wired together: a Blockchain, the StorageManagerContract, a
// generic ConsumerContract (DU), the AdsSp with its embedded KVStore, the
// SpDaemon watchdog, and the DoClient control plane with a pluggable
// ReplicationPolicy. The static baselines BL1/BL2 are the same system with
// degenerate policies; the BL3 dynamic baselines set the contract's
// on-chain-trace flags.
//
// A standalone system owns its chain. A feed of a multi-feed deployment
// (multi_feed.h) is the same system built against a borrowed, shared chain:
// its own contracts, accounts, shards, SP and DO, and the same driver.
//
// Trace driving model (matching the paper's experiment setup):
//  * operations are grouped `ops_per_tx` to a transaction (32 in the micro
//    benches — "each [tx] encoding 32 operations", Fig. 8a);
//  * the reads of a group execute in one DU `run` transaction; misses are
//    answered by one batched `deliver` transaction from the watchdog;
//  * writes buffer at the DO and flush in one `update` transaction when the
//    epoch (`txs_per_epoch` groups) closes;
//  * a scan expands to `scan_len` consecutive point reads over the live key
//    space and counts as that many operations (per-record accounting).
#pragma once

#include <functional>
#include <memory>
#include <set>

#include "chain/blockchain.h"
#include "fault/injector.h"
#include "grub/consumer.h"
#include "grub/do_client.h"
#include "grub/policy.h"
#include "grub/sp_daemon.h"
#include "grub/sp_quorum.h"
#include "grub/storage_manager.h"
#include "shard/forest.h"
#include "telemetry/telemetry.h"
#include "workload/trace.h"

namespace grub::core {

/// How DU range reads are served.
enum class ScanMode {
  /// Expand a scan into per-record gGets (what the paper's evaluation
  /// normalization implies; each record pays its own proof).
  kExpandPointReads,
  /// One gScan request answered with a single range-completeness proof
  /// (B.2.2's r2 protocol) — far cheaper calldata for contiguous ranges.
  kRangeProof,
};

struct SystemOptions {
  size_t ops_per_tx = 32;
  size_t txs_per_epoch = 1;
  ScanMode scan_mode = ScanMode::kExpandPointReads;
  bool trace_reads_on_chain = false;   // BL3 (reads)
  bool trace_writes_on_chain = false;  // BL3 (reads + writes)
  /// Merge duplicate requests within one deliver batch (ablation; the
  /// paper's prototype serves each request individually).
  bool dedup_deliver_batch = false;
  /// The owned chain's settings. Chain-wide, like enable_telemetry,
  /// enable_tracing and fault_schedule below: a feed on a shared chain reads
  /// the chain's Params() instead, and rejects those three.
  chain::ChainParams chain_params = {};
  std::string sp_db_path;  // empty = in-memory SP store
  /// Attach a Telemetry bundle: Gas attribution on the chain, per-epoch
  /// snapshots in Drive, wall-clock instruments on SP/KV/DO. Off by default
  /// — enabling it never changes Gas results (asserted in tests).
  bool enable_telemetry = false;
  /// Attach the request-scoped Tracer (implies a Telemetry bundle): spans
  /// per gGet/gScan/deliver/epoch, policy-flip audit records, Chrome
  /// JSON / JSONL export via Tracing(). Like enable_telemetry, never changes
  /// Gas results (asserted in tests).
  bool enable_tracing = false;
  /// Fault schedule (fault::FaultInjector::Parse grammar, e.g.
  /// "sp.deliver.drop@3,chain.reorg~0.05"). Empty = no injector: the fault
  /// points stay dormant and Gas results are bit-identical to a
  /// GRUB_FAULTS=OFF build. The constructor throws std::invalid_argument on
  /// a malformed schedule.
  std::string fault_schedule;
  /// Seed for the injector's probabilistic rules — same seed + schedule
  /// reproduces the identical failure (and recovery) sequence.
  uint64_t fault_seed = 42;
  /// Number of key-range shards in the Merkle forest. 1 (the default) is the
  /// legacy single-tree deployment, bit-identical in Gas and calldata. With
  /// more shards the keyspace is range-partitioned (boundaries below or
  /// ShardMap::Uniform), each shard keeps its own tree + on-chain root, and
  /// the epoch update sends one transaction per touched shard.
  size_t shards = 1;
  /// Explicit shard boundaries (sorted, distinct; shard i covers
  /// [boundaries[i-1], boundaries[i])). Overrides `shards` when non-empty.
  /// Use IndexedKeyBoundaries() for workload::MakeKey keyspaces — ASCII
  /// keys occupy a sliver of the u64 prefix space, so Uniform() would put
  /// them all in shard 0.
  std::vector<Bytes> shard_boundaries;
  /// SP watchdog replicas (the Byzantine-SP quorum; see sp_quorum.h). 1 is
  /// the classic single-watchdog deployment, bit-identical in Gas and
  /// transactions to the pre-quorum pipeline.
  size_t sp_replicas = 1;
  /// Per-replica Byzantine behaviour spec (fault::ParseMulti grammar, e.g.
  /// "forge@2" or "0:omit*;1:replay@1"). Empty = all replicas honest. The
  /// constructor throws std::invalid_argument on a malformed spec; attacks
  /// only mutate delivers in GRUB_FAULTS builds.
  std::string adversary_spec;
  /// Seed for probabilistic adversary triggers (defaults to fault_seed).
  uint64_t adversary_seed = 42;
  /// Quorum failover thresholds (see QuorumOptions).
  uint64_t blacklist_after_rejections = 2;
  uint64_t liveness_timeout_polls = 3;
  /// Attach the workload observatory: a per-feed WorkloadMonitor streaming
  /// per-shard heat, hot-key sets, online K estimates, flip regret and
  /// gas-per-op drift as the system runs (grubctl --workload / --watch).
  /// Observation-only; never changes Gas results (asserted in tests and by
  /// the ci.sh diff stage). In GRUB_TELEMETRY=0 builds the flag is inert.
  bool enable_workload_monitor = false;
  /// Heavy-hitter sketch capacity for the monitor.
  size_t workload_sketch_capacity = 64;
  /// Block window for the monitor's decayed rate estimators.
  uint64_t workload_rate_window_blocks = 16;
};

/// Gas measured over one epoch of driving: what the system's own two
/// contracts metered (on a standalone chain, every transaction).
struct EpochGas {
  uint64_t gas = 0;
  size_t ops = 0;
  /// Shards whose trees changed this epoch (1 at most in single-shard runs).
  size_t touched_shards = 0;

  double PerOp() const {
    return ops == 0 ? 0.0 : static_cast<double>(gas) / static_cast<double>(ops);
  }
};

class GrubSystem {
 public:
  /// A standalone deployment on its own chain (built from
  /// `options.chain_params`), with the accounts kDoAccount..kUserAccount.
  GrubSystem(SystemOptions options, std::unique_ptr<ReplicationPolicy> policy);

  /// Feed number `feed` of a deployment sharing `chain` (not owned; must
  /// outlive the system). Its accounts are derived from `feed`, so feeds on
  /// one chain never share one. The chain's settings are the chain's:
  /// `options.chain_params` is not consulted (the chain's Params() are), and
  /// options that attach to the chain itself — a fault schedule, a telemetry
  /// bundle or tracer — throw std::invalid_argument.
  GrubSystem(chain::Blockchain& chain, size_t feed, SystemOptions options,
             std::unique_ptr<ReplicationPolicy> policy);

  /// Bulk-loads records. A standalone system then zeroes the chain's Gas
  /// counters; on a shared chain that is the owner's call.
  void Preload(const std::vector<std::pair<Bytes, Bytes>>& records);

  /// Drives a trace to completion; returns the per-epoch Gas series.
  /// Equivalent to DriveStep until it returns false, then FinishDrive.
  std::vector<EpochGas> Drive(const workload::Trace& trace);

  /// The resumable driver step: drives `trace` from `cursor` until one
  /// transaction group closes (closing the epoch when it is due) or the
  /// trace ends, and advances `cursor`. Returns whether ops remain. Steps of
  /// several systems on one chain may interleave freely.
  bool DriveStep(const workload::Trace& trace, size_t& cursor);
  /// Closes a partial group and epoch, and returns the epochs closed since
  /// the previous FinishDrive.
  std::vector<EpochGas> FinishDrive();

  /// The chain's totals: on a shared chain, every feed's Gas.
  uint64_t TotalGas() const { return chain_.TotalGasUsed(); }
  const chain::GasBreakdown& TotalBreakdown() const {
    return chain_.TotalBreakdown();
  }

  chain::Blockchain& Chain() { return chain_; }
  /// The first (single-shard deployments: only) shard's SP-side ADS —
  /// existing call sites predate the forest and mean exactly this.
  ads::AdsSp& Sp() { return sp_.Shard(0); }
  /// The whole SP-side forest.
  shard::ShardedAdsSp& ShardedSp() { return sp_; }
  const shard::ShardMap& Shards() const { return sp_.Map(); }
  DoClient& Do() { return *do_client_; }
  const DoClient& Do() const { return *do_client_; }
  ConsumerContract& Consumer() { return *consumer_; }
  /// The ACTIVE watchdog daemon — single-replica deployments have exactly
  /// one, so existing call sites keep their meaning under the quorum.
  SpDaemon& Daemon() { return quorum_->Active(); }
  /// The multi-SP coordinator (always present; N=1 is a pass-through).
  SpQuorum& Quorum() { return *quorum_; }
  const SpQuorum& Quorum() const { return *quorum_; }
  chain::Address ManagerAddress() const { return manager_address_; }
  chain::Address ConsumerAddress() const { return consumer_address_; }
  /// The DU account that sends `run` transactions (kUserAccount standalone).
  chain::Address UserAccount() const { return accounts_.user; }

  /// The multi-tier placement summary grubctl embeds verbatim under --json
  /// "placement" (and the placement golden test pins): policy name, per-tier
  /// key census, flip/pin/unpin counters, and log-tier serves across the
  /// quorum's daemons.
  std::string PlacementJson() const;

  /// The attached telemetry bundle, or null when `enable_telemetry` is off.
  /// (Capitalized to avoid shadowing the `telemetry` namespace in-class.)
  telemetry::Telemetry* Metrics() { return telemetry_.get(); }
  const telemetry::Telemetry* Metrics() const { return telemetry_.get(); }

  /// The attached fault injector, or null when no schedule was given.
  fault::FaultInjector* Faults() { return faults_.get(); }
  const fault::FaultInjector* Faults() const { return faults_.get(); }

  /// The attached Tracer, or null when `enable_tracing` is off.
  telemetry::Tracer* Tracing() {
    return telemetry_ == nullptr ? nullptr : telemetry_->Trace();
  }
  const telemetry::Tracer* Tracing() const {
    return telemetry_ == nullptr ? nullptr : telemetry_->Trace();
  }

  /// The attached workload monitor, or null when `enable_workload_monitor`
  /// is off (always null in GRUB_TELEMETRY=0 builds).
  telemetry::WorkloadMonitor* Workload() { return workload_.get(); }
  const telemetry::WorkloadMonitor* Workload() const { return workload_.get(); }

  /// Arms the monitor's streaming-regret comparator: an OfflineOptimalPolicy
  /// replay over `trace` runs alongside Drive, and every flip the clairvoyant
  /// oracle would pay feeds WorkloadMonitor::OnOracleFlip (scans are skipped,
  /// matching the trace-summary regret baseline — the oracle only flips at
  /// point observations). Call before each Drive pass over the same trace;
  /// no-op when the monitor is off. Under a non-unit GasPriceSchedule the
  /// oracle replay is price-aware (see OracleReplayModel), so streamed regret
  /// stays correct under non-stationary prices.
  void EnableWorkloadOracle(const workload::Trace& trace);

  /// The op -> block model price-aware oracles replay the schedule with,
  /// anchored at the chain's current block. blocks_per_op is the driving
  /// loop's approximate slope: ~3 mined blocks per `ops_per_tx`-op group
  /// (consumer run + deliver + amortized epoch update) — approximate by
  /// construction, documented in DESIGN.md §10.
  PriceReplayModel OracleReplayModel() const;

  /// Streams one WorkloadMonitor JSONL snapshot to `out` every
  /// `every_blocks` blocks during Drive (the grubctl --watch stream). Pass
  /// null/0 to detach; no-op when the monitor is off.
  void SetWatch(uint64_t every_blocks, std::ostream* out);

  /// Issues a single read immediately (its own transaction + any deliver).
  void ReadNow(const Bytes& key);
  /// Buffers a write into the DO's current epoch.
  void Write(Bytes key, Bytes value);
  /// Ends the current epoch explicitly.
  void EndEpoch();

  static constexpr chain::Address kDoAccount = 1001;
  static constexpr chain::Address kSpAccount = 1002;
  static constexpr chain::Address kUserAccount = 1003;
  static_assert(kSpAccount == kDoAccount + 1 && kUserAccount == kDoAccount + 2);

 private:
  struct Accounts {
    chain::Address do_account;
    chain::Address sp;
    chain::Address user;
  };
  /// The DO, SP and DU accounts are `first_account` and the next two.
  GrubSystem(std::unique_ptr<chain::Blockchain> owned,
             chain::Blockchain* borrowed, chain::Address first_account,
             SystemOptions options, std::unique_ptr<ReplicationPolicy> policy);

  /// Gas metered by this system's two contracts (exact on a shared chain).
  uint64_t OwnGas() const;
  void CloseGroup();
  void CloseEpoch();
  void FlushReadGroup();
  std::vector<Bytes> ExpandScan(const Bytes& start, uint32_t len) const;
  /// Feeds one point observation to the armed oracle replay (no-op without
  /// one) and forwards any flip to the monitor's regret accumulator.
  void ObserveOracle(const workload::Operation& op);
  /// Emits a --watch snapshot when the chain crossed into a new window.
  void MaybeEmitWatch();

  SystemOptions options_;
  std::unique_ptr<chain::Blockchain> owned_chain_;  // null = borrowed
  chain::Blockchain& chain_;
  Accounts accounts_;
  shard::ShardedAdsSp sp_;
  chain::Address manager_address_ = chain::kNullAddress;
  chain::Address consumer_address_ = chain::kNullAddress;
  ConsumerContract* consumer_ = nullptr;  // owned by chain_
  StorageManagerContract* manager_contract_ = nullptr;  // owned by chain_
  std::unique_ptr<telemetry::Telemetry> telemetry_;  // null = disabled
  std::unique_ptr<fault::FaultInjector> faults_;     // null = no schedule
  std::unique_ptr<DoClient> do_client_;
  std::unique_ptr<SpQuorum> quorum_;
  std::unique_ptr<telemetry::WorkloadMonitor> workload_;  // null = off
  std::unique_ptr<OfflineOptimalPolicy> oracle_;  // null = regret unarmed
  uint64_t watch_every_blocks_ = 0;       // 0 = no watch stream
  std::ostream* watch_out_ = nullptr;     // not owned; may be null
  uint64_t watch_windows_emitted_ = 0;    // watch windows already snapshot

  std::set<Bytes> live_keys_;  // for scan expansion/bounds

  // Driver state carried between DriveStep calls until FinishDrive.
  struct DriveState {
    bool open = false;  // a drive is in progress (epoch start captured)
    uint64_t epoch_start_gas = 0;
    size_t ops_in_group = 0;
    size_t groups_in_epoch = 0;
    size_t ops_in_epoch = 0;
    std::vector<EpochGas> epochs;
  };
  DriveState drive_;
};

/// Convenience: Eq. 1's K = C_update / C_read_off for a schedule.
double BreakEvenK(const chain::GasSchedule& gas);

/// Builds the ShardMap a SystemOptions describes (boundaries win over the
/// uniform count). Exposed so benches/tools can inspect the layout.
shard::ShardMap MakeShardMap(const SystemOptions& options);

/// Shard boundaries that split the workload::MakeKey(0..key_count) keyspace
/// into `shards` near-equal ranges. MakeKey emits fixed-width ASCII keys
/// ("k%015llu"), which collapse into one uniform-prefix bucket — these
/// boundaries are the MakeKey quantiles instead.
std::vector<Bytes> IndexedKeyBoundaries(uint64_t key_count, size_t shards);

}  // namespace grub::core
