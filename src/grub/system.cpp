#include "grub/system.h"

#include <algorithm>
#include <stdexcept>

#include "workload/trace.h"

namespace grub::core {

double BreakEvenK(const chain::GasSchedule& gas) {
  return static_cast<double>(gas.sstore_update_per_word) /
         static_cast<double>(gas.OffchainReadPerWord());
}

shard::ShardMap MakeShardMap(const SystemOptions& options) {
  if (!options.shard_boundaries.empty()) {
    return shard::ShardMap(options.shard_boundaries);
  }
  if (options.shards > 1) return shard::ShardMap::Uniform(options.shards);
  return shard::ShardMap();
}

std::vector<Bytes> IndexedKeyBoundaries(uint64_t key_count, size_t shards) {
  std::vector<Bytes> boundaries;
  if (shards <= 1 || key_count == 0) return boundaries;
  boundaries.reserve(shards - 1);
  for (size_t s = 1; s < shards; ++s) {
    // Quantile start keys; MakeKey is order-preserving (fixed width), so
    // these partition the indexed keyspace into near-equal ranges.
    boundaries.push_back(workload::MakeKey(key_count * s / shards));
  }
  // Degenerate splits (more shards than keys) can repeat a quantile; the
  // ShardMap constructor requires distinct boundaries.
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  return boundaries;
}

namespace {

// Disjoint account ranges per feed on a shared chain, clear of a standalone
// system's 1001..1003.
constexpr chain::Address kFeedAccountBase = 2001;
constexpr chain::Address kAccountsPerFeed = 3;

// A borrowed chain's settings are its owner's: options that would attach
// something to the chain itself cannot be honoured per feed.
SystemOptions CheckFeedOptions(SystemOptions options) {
  if (!options.fault_schedule.empty() || options.enable_telemetry ||
      options.enable_tracing) {
    throw std::invalid_argument(
        "a feed on a shared chain takes no fault schedule, telemetry or "
        "tracing");
  }
  return options;
}

}  // namespace

GrubSystem::GrubSystem(SystemOptions options,
                       std::unique_ptr<ReplicationPolicy> policy)
    : GrubSystem(std::make_unique<chain::Blockchain>(options.chain_params),
                 nullptr, kDoAccount, std::move(options), std::move(policy)) {}

GrubSystem::GrubSystem(chain::Blockchain& chain, size_t feed,
                       SystemOptions options,
                       std::unique_ptr<ReplicationPolicy> policy)
    : GrubSystem(nullptr, &chain,
                 kFeedAccountBase +
                     static_cast<chain::Address>(feed) * kAccountsPerFeed,
                 CheckFeedOptions(std::move(options)), std::move(policy)) {}

GrubSystem::GrubSystem(std::unique_ptr<chain::Blockchain> owned,
                       chain::Blockchain* borrowed,
                       chain::Address first_account, SystemOptions options,
                       std::unique_ptr<ReplicationPolicy> policy)
    : options_(std::move(options)),
      owned_chain_(std::move(owned)),
      chain_(owned_chain_ != nullptr ? *owned_chain_ : *borrowed),
      accounts_{first_account, first_account + 1, first_account + 2},
      sp_(MakeShardMap(options_), options_.sp_db_path) {
  StorageManagerContract::Config config;
  config.do_address = accounts_.do_account;
  config.shard_map = sp_.Map();
  config.trace_reads_on_chain =
      options_.trace_reads_on_chain || options_.trace_writes_on_chain;
  config.trace_writes_on_chain = options_.trace_writes_on_chain;
  // The reference deployment always arms the pending-request ledger: it is
  // unmetered (no Gas drift) and makes replayed delivers provably rejected.
  config.enforce_request_ledger = true;
  auto manager = std::make_unique<StorageManagerContract>(config);
  manager_contract_ = manager.get();
  manager_address_ = chain_.Deploy(std::move(manager));

  auto consumer = std::make_unique<ConsumerContract>(manager_address_);
  consumer_ = consumer.get();
  consumer_address_ = chain_.Deploy(std::move(consumer));

  DoClient::Options do_options;
  do_options.do_account = accounts_.do_account;
  do_options.storage_manager = manager_address_;
  do_client_ =
      std::make_unique<DoClient>(chain_, sp_, do_options, std::move(policy));

  QuorumOptions quorum_options;
  quorum_options.replicas = options_.sp_replicas;
  quorum_options.adversary_spec = options_.adversary_spec;
  quorum_options.adversary_seed = options_.adversary_seed;
  quorum_options.blacklist_after_rejections =
      options_.blacklist_after_rejections;
  quorum_options.liveness_timeout_polls = options_.liveness_timeout_polls;
  quorum_ = std::make_unique<SpQuorum>(chain_, sp_, manager_address_,
                                       accounts_.sp, quorum_options,
                                       options_.dedup_deliver_batch);

  if (options_.enable_telemetry || options_.enable_tracing) {
    telemetry_ = std::make_unique<telemetry::Telemetry>();
    chain_.SetTelemetry(telemetry_.get());
    sp_.SetMetrics(&telemetry_->Registry());
    do_client_->SetMetrics(&telemetry_->Registry());
    quorum_->SetMetrics(&telemetry_->Registry());
  }
  if (options_.enable_tracing) {
    telemetry::Tracer& tracer = telemetry_->EnableTracing();
    consumer_->SetTracer(&tracer);
    quorum_->SetTracer(&tracer);
    do_client_->SetTracer(&tracer);
  }
#if GRUB_TELEMETRY
  if (options_.enable_workload_monitor) {
    telemetry::WorkloadMonitor::Options monitor_options;
    const shard::ShardMap shard_map = sp_.Map();
    monitor_options.shard_count = static_cast<uint32_t>(shard_map.Count());
    monitor_options.shard_of = [shard_map](const Bytes& key) {
      return shard_map.ShardOf(key);
    };
    monitor_options.sketch_capacity = options_.workload_sketch_capacity;
    monitor_options.rate_window_blocks = options_.workload_rate_window_blocks;
    workload_ =
        std::make_unique<telemetry::WorkloadMonitor>(std::move(monitor_options));
    do_client_->SetWorkloadMonitor(workload_.get());
    quorum_->SetWorkloadMonitor(workload_.get());
    manager_contract_->SetWorkloadMonitor(workload_.get());
  }
#endif

  if (!options_.fault_schedule.empty()) {
    auto injector = fault::FaultInjector::Parse(options_.fault_schedule,
                                               options_.fault_seed);
    if (!injector.ok()) {
      throw std::invalid_argument("fault schedule: " +
                                  injector.status().ToString());
    }
    faults_ = std::move(injector).value();
    if (telemetry_ != nullptr) faults_->SetMetrics(&telemetry_->Registry());
    chain_.SetFaultInjector(faults_.get());
    sp_.SetFaultInjector(faults_.get());
    quorum_->SetFaultInjector(faults_.get());
    do_client_->SetFaultInjector(faults_.get());
  }
}

void GrubSystem::Preload(const std::vector<std::pair<Bytes, Bytes>>& records) {
  do_client_->Preload(records);
  for (const auto& [key, value] : records) live_keys_.insert(key);
  if (owned_chain_ != nullptr) chain_.ResetGasCounters();
}

uint64_t GrubSystem::OwnGas() const {
  return chain_.GasUsedBy(manager_address_) +
         chain_.GasUsedBy(consumer_address_);
}

std::vector<Bytes> GrubSystem::ExpandScan(const Bytes& start,
                                          uint32_t len) const {
  std::vector<Bytes> keys;
  keys.reserve(len);
  for (auto it = live_keys_.lower_bound(start);
       it != live_keys_.end() && keys.size() < len; ++it) {
    keys.push_back(*it);
  }
  return keys;
}

std::string GrubSystem::PlacementJson() const {
  const auto census = do_client_->TierCensus();
  uint64_t digest_delivers = 0;
  for (size_t i = 0; i < quorum_->ReplicaCount(); ++i) {
    digest_delivers += quorum_->Replica(i).digest_entries_served();
  }
  std::string json = "{";
  json += "\"policy\":\"" + do_client_->Policy().Name() + "\"";
  json += ",\"tiers\":{";
  for (size_t t = 0; t < tier::kNumStorageTiers; ++t) {
    if (t > 0) json += ',';
    json += "\"" +
            std::string(tier::Name(static_cast<tier::StorageTier>(t))) +
            "\":" + std::to_string(census[t]);
  }
  json += "}";
  json += ",\"tier_flips\":" + std::to_string(do_client_->tier_flips());
  json += ",\"log_pins\":" + std::to_string(do_client_->log_pins());
  json += ",\"log_unpins\":" + std::to_string(do_client_->log_unpins());
  json += ",\"digest_delivers\":" + std::to_string(digest_delivers);
  json += "}";
  return json;
}

PriceReplayModel GrubSystem::OracleReplayModel() const {
  PriceReplayModel model;
  model.schedule = &chain_.Params().price;
  model.start_block = chain_.CurrentBlockNumber();
  // ~3 mined blocks per driven group: consumer run + deliver + the epoch
  // update amortized over its groups.
  model.blocks_per_op =
      3.0 / static_cast<double>(options_.ops_per_tx == 0 ? 1
                                                         : options_.ops_per_tx);
  return model;
}

void GrubSystem::EnableWorkloadOracle(const workload::Trace& trace) {
  if (workload_ == nullptr) return;
  oracle_ = std::make_unique<OfflineOptimalPolicy>(
      trace, BreakEvenK(chain_.Params().gas), OracleReplayModel());
}

void GrubSystem::SetWatch(uint64_t every_blocks, std::ostream* out) {
  watch_every_blocks_ = every_blocks;
  watch_out_ = out;
  watch_windows_emitted_ = 0;
}

void GrubSystem::ObserveOracle(const workload::Operation& op) {
  if (oracle_ == nullptr || workload_ == nullptr) return;
  const ads::ReplState before = oracle_->StateOf(op.key);
  oracle_->Observe(op);
  if (oracle_->StateOf(op.key) != before) workload_->OnOracleFlip();
}

void GrubSystem::MaybeEmitWatch() {
  if (watch_out_ == nullptr || watch_every_blocks_ == 0 ||
      workload_ == nullptr) {
    return;
  }
  // One snapshot per crossed window; a burst of blocks emits only the latest
  // window (the stream samples state, it does not replay history).
  const uint64_t window = chain_.CurrentBlockNumber() / watch_every_blocks_;
  if (window < watch_windows_emitted_) return;
  *watch_out_ << workload_->SnapshotJsonLine(chain_.CurrentBlockNumber())
              << "\n";
  watch_windows_emitted_ = window + 1;
}

void GrubSystem::FlushReadGroup() {
  if (consumer_->QueuedCount() == 0) return;
  chain::Transaction tx;
  tx.from = accounts_.user;
  tx.to = consumer_address_;
  tx.function = ConsumerContract::kRunFn;
  tx.cause = telemetry::GasCause::kGGetSync;
  tx.calldata = ConsumerContract::EncodeRun(consumer_->QueuedCount());
  chain_.SubmitAndMine(std::move(tx));
  // Drain, don't single-shot: a deliver batch that would cross the Ctx(X)
  // calldata bound is split, so one poll may serve only a prefix of the
  // group. Re-poll while the SP makes progress; a faulty/omitting SP serves
  // nothing and exits the loop immediately, keeping the watchdog honest.
  while (quorum_->PollAndServe() > 0) {
  }
  // After the SP had its chance: re-emit starved reads, degrade/un-degrade.
  // Fault-free runs find nothing pending and spend no Gas here.
  do_client_->CheckReadLiveness();
  MaybeEmitWatch();
}

void GrubSystem::ReadNow(const Bytes& key) {
  do_client_->NoteRead(key);
  consumer_->QueueRead(key);
  FlushReadGroup();
}

void GrubSystem::Write(Bytes key, Bytes value) {
  live_keys_.insert(key);
  do_client_->BufferPut(std::move(key), std::move(value));
}

void GrubSystem::EndEpoch() {
  FlushReadGroup();
  do_client_->EndEpoch();
}

std::vector<EpochGas> GrubSystem::Drive(const workload::Trace& trace) {
  size_t cursor = 0;
  while (DriveStep(trace, cursor)) {
  }
  return FinishDrive();
}

void GrubSystem::CloseGroup() {
  FlushReadGroup();
  // Under a non-unit schedule the policy hears the going price once per read
  // group (its online view of the chain's fee market). Constant-price runs
  // never take this branch — byte-identical to the pre-scenario driver.
  const chain::GasPriceSchedule& schedule = chain_.Params().price;
  if (!schedule.IsUnit()) {
    const uint64_t block = chain_.CurrentBlockNumber();
    const chain::PricePoint p = schedule.At(block);
    do_client_->MutablePolicy().ObservePrice(p.exec_milli, p.storage_milli,
                                             block);
  }
  drive_.ops_in_group = 0;
  drive_.groups_in_epoch += 1;
}

void GrubSystem::CloseEpoch() {
  do_client_->EndEpoch();
  // Saturating delta: a reorg can roll the cumulative counters below the
  // value captured at the epoch start.
  const uint64_t gas_now = OwnGas();
  EpochGas epoch;
  epoch.gas = gas_now >= drive_.epoch_start_gas
                  ? gas_now - drive_.epoch_start_gas
                  : 0;
  epoch.ops = drive_.ops_in_epoch;
  epoch.touched_shards = do_client_->LastEpochTouchedShards();
  std::vector<double> shard_heat;
  if (workload_ != nullptr) {
    const uint64_t block = chain_.CurrentBlockNumber();
    workload_->OnEpochClose(epoch.ops, epoch.gas, block);
    shard_heat = workload_->ShardHeat(block);
  }
  if (telemetry_ != nullptr) {
    telemetry::EpochPrice price;
    const chain::GasPriceSchedule& schedule = chain_.Params().price;
    if (!schedule.IsUnit()) {
      const chain::PricePoint p = schedule.At(chain_.CurrentBlockNumber());
      price.valid = true;
      price.exec_milli = p.exec_milli;
      price.storage_milli = p.storage_milli;
    }
    telemetry_->CloseEpoch(epoch.ops, epoch.touched_shards,
                           std::move(shard_heat), price);
  }
  drive_.epochs.push_back(epoch);
  drive_.epoch_start_gas = gas_now;
  drive_.groups_in_epoch = 0;
  drive_.ops_in_epoch = 0;
}

bool GrubSystem::DriveStep(const workload::Trace& trace, size_t& cursor) {
  if (!drive_.open) {
    drive_.open = true;
    drive_.epoch_start_gas = OwnGas();
  }
  while (cursor < trace.size()) {
    const workload::Operation& op = trace[cursor++];
    size_t op_weight = 1;
    // The armed oracle replays point observations alongside the online
    // policy (scans are skipped, matching the trace-summary regret
    // baseline), so the monitor's regret counter streams instead of waiting
    // for the post-run analyzer.
    if (op.type != workload::OpType::kScan) ObserveOracle(op);
    switch (op.type) {
      case workload::OpType::kWrite:
        Write(op.key, op.value);
        break;
      case workload::OpType::kRead:
        do_client_->NoteRead(op.key);
        consumer_->QueueRead(op.key);
        break;
      case workload::OpType::kScan: {
        auto keys = ExpandScan(op.key, op.scan_len);
        op_weight = keys.empty() ? 1 : keys.size();
        for (const auto& key : keys) do_client_->NoteRead(key);
        if (options_.scan_mode == ScanMode::kExpandPointReads) {
          for (auto& key : keys) consumer_->QueueRead(std::move(key));
        } else if (!keys.empty()) {
          // Exclusive upper bound: the successor of the last matched key.
          auto it = live_keys_.upper_bound(keys.back());
          Bytes end = it == live_keys_.end() ? Bytes{} : *it;
          consumer_->QueueScan(op.key, std::move(end));
        }
        break;
      }
    }
    drive_.ops_in_group += op_weight;
    drive_.ops_in_epoch += op_weight;

    if (drive_.ops_in_group >= options_.ops_per_tx) {
      CloseGroup();
      if (drive_.groups_in_epoch >= options_.txs_per_epoch) CloseEpoch();
      break;
    }
  }
  return cursor < trace.size();
}

std::vector<EpochGas> GrubSystem::FinishDrive() {
  // Flush any partial group/epoch.
  if (drive_.ops_in_group > 0) CloseGroup();
  if (drive_.ops_in_epoch > 0) CloseEpoch();
  std::vector<EpochGas> epochs = std::move(drive_.epochs);
  drive_ = DriveState{};
  return epochs;
}

}  // namespace grub::core
