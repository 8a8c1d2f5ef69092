// feedbench: end-to-end benchmark of the GRuB feed pipeline.
//
//   feedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--fingerprint-file PATH] [--spans-out PATH]
//
// One process drives one workload from one thread:
//
//   GrubSystem -> DU `run` tx on the chain -> SpQuorum/SpDaemon deliver with
//   on-chain proof verification -> DoClient epoch update over the ads/shard
//   forest.
//
// The trace is generated from --seed before any timing starts, sliced into
// epoch-sized (32-op) slices, and sized from --seconds by a nominal per-
// workload rate, so Gas and every count are a pure function of
// (workload, seed, seconds). A run is a few ROUNDS; each round builds a fresh
// system (timed: setup), drives the same trace slice by slice (timed: one
// sample per epoch) and checks every slice against a reference replay
// between slices, outside the timed region.
//
// --trace 0 prints the end-to-end metrics of untraced rounds (telemetry,
// tracing and the workload monitor off). --trace 1 runs a traced round
// between two untraced ones and prints the per-layer metrics. The traced
// round re-drives the trace through the same public calls GrubSystem::Drive
// makes, with spans recorded here around each call; it must meter the same
// Gas, breakdown and delivered values as the untraced rounds.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit code 0 whenever a result was printed; 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "ads/verify.h"
#include "crypto/sha256.h"
#include "grub/consumer.h"
#include "grub/policy.h"
#include "grub/system.h"
#include "telemetry/percentile.h"
#include "telemetry/profile.h"
#include "workload/synthetic.h"
#include "workload/ycsb.h"

namespace {

using namespace grub;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// a / b, or 0 for an empty base.
double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- workloads

constexpr size_t kOpsPerEpoch = 32;  // 32 ops/tx x 1 tx/epoch
constexpr double kPolicyK = 2;       // memorizing(K'=2, D=1)
constexpr double kPolicyD = 1;

struct WorkloadSpec {
  const char* name;
  size_t records;      // preloaded keys
  size_t value_bytes;  // record size
  size_t shards;
  /// Ops driven per second of --seconds. Sizes the trace deterministically
  /// (no wall clock), so counts and Gas depend only on the arguments.
  double nominal_ops_per_s;
  /// Untraced rounds of a --trace 0 run (each one setup + one drive).
  size_t rounds;
};

constexpr WorkloadSpec kWorkloads[] = {
    // YCSB-B (95/5, scrambled Zipfian) over 100k 32-B records, one shard.
    {"ycsb-b-read", 100000, 32, 1, 60000, 5},
    // YCSB-A (50/50) over 65,536 keys in 16 IndexedKeyBoundaries shards.
    {"ycsb-a-sharded", 65536, 32, 16, 350, 3},
    // BtcRelay append-only 80-B headers after a 4,096-header history.
    {"btcrelay-append", 4096, 80, 1, 24000, 5},
};

/// Epochs every round must hold so that at least ten lie beyond its p90.
constexpr size_t kMinEpochsPerRound = 100;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Inputs {
  std::vector<std::pair<Bytes, Bytes>> preload;
  std::vector<workload::Trace> slices;  // one per epoch
  size_t ops = 0;
  size_t reads = 0;
  size_t writes = 0;
  /// Expected callback value of every read in trace order: the value
  /// committed before the read's epoch, or null for a key not yet committed.
  std::vector<const Bytes*> expected;
  /// Share of ops that ShardMap::ShardOf routes to the busiest shard.
  double hottest_shard_share = 0;
};

core::SystemOptions MakeOptions(const WorkloadSpec& spec, bool telemetry) {
  core::SystemOptions options;
  options.ops_per_tx = kOpsPerEpoch;
  options.txs_per_epoch = 1;
  options.enable_telemetry = telemetry;
  options.enable_tracing = false;
  options.enable_workload_monitor = false;
  if (spec.shards > 1) {
    options.shard_boundaries =
        core::IndexedKeyBoundaries(spec.records, spec.shards);
  }
  return options;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  // Ops per round: the run's nominal budget spread over its rounds, but never
  // fewer epochs than the p90 needs.
  const size_t target_ops = std::max(
      kMinEpochsPerRound * kOpsPerEpoch,
      static_cast<size_t>(seconds * spec.nominal_ops_per_s /
                          static_cast<double>(spec.rounds)));
  Inputs in;
  workload::Trace trace;
  const std::string name = spec.name;
  if (name == "btcrelay-append") {
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    in.preload.reserve(spec.records);
    for (uint64_t i = 0; i < spec.records; ++i) {
      Bytes header(spec.value_bytes);
      for (auto& b : header) b = static_cast<uint8_t>(rng.NextU64());
      in.preload.emplace_back(workload::MakeKey(i), std::move(header));
    }
    workload::BtcRelayOptions o;
    o.value_bytes = spec.value_bytes;
    o.seed = seed;
    o.first_key_index = spec.records;
    // Table 6 averages ~0.07 reads per write.
    o.write_count = static_cast<size_t>(static_cast<double>(target_ops) / 1.07);
    trace = workload::BtcRelayTrace(o);
  } else {
    const auto config = name == "ycsb-b-read"
                            ? workload::YcsbConfig::WorkloadB()
                            : workload::YcsbConfig::WorkloadA();
    workload::YcsbGenerator gen(config, spec.records, spec.value_bytes, seed);
    for (auto& op : gen.PreloadTrace()) {
      in.preload.emplace_back(std::move(op.key), std::move(op.value));
    }
    gen.Generate(target_ops, trace);
  }

  in.ops = trace.size();
  for (size_t i = 0; i < trace.size(); i += kOpsPerEpoch) {
    const size_t end = std::min(trace.size(), i + kOpsPerEpoch);
    in.slices.emplace_back(std::make_move_iterator(trace.begin() + i),
                           std::make_move_iterator(trace.begin() + end));
  }

  // Reference replay: values commit at each epoch close.
  std::unordered_map<std::string, const Bytes*> committed;
  auto key_of = [](const Bytes& k) { return std::string(k.begin(), k.end()); };
  for (const auto& [key, value] : in.preload) committed[key_of(key)] = &value;
  const shard::ShardMap map = core::MakeShardMap(MakeOptions(spec, false));
  std::vector<size_t> per_shard(map.Count(), 0);
  for (const auto& slice : in.slices) {
    for (const auto& op : slice) {
      per_shard[map.ShardOf(op.key)] += 1;
      if (op.type == workload::OpType::kRead) {
        auto it = committed.find(key_of(op.key));
        in.expected.push_back(it == committed.end() ? nullptr : it->second);
        in.reads += 1;
      } else {
        in.writes += 1;
      }
    }
    for (const auto& op : slice) {
      if (op.type == workload::OpType::kWrite) {
        committed[key_of(op.key)] = &op.value;
      }
    }
  }
  const size_t hottest = *std::max_element(per_shard.begin(), per_shard.end());
  in.hottest_shard_share = Ratio(hottest, in.ops);
  return in;
}

// ------------------------------------------------------------------ checker

uint64_t Fnv1a(uint64_t h, const Bytes& bytes) {
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Everything a round produces that must repeat exactly: Gas, the program's
/// counters and the delivered values.
struct RoundCounts {
  uint64_t gas = 0;
  chain::GasBreakdown breakdown;
  uint64_t blocks = 0;
  uint64_t delivers = 0;
  uint64_t deliver_retries = 0;
  uint64_t deliver_rejections = 0;
  uint64_t update_retries = 0;
  uint64_t watchdog_reemits = 0;
  uint64_t replicas_on_chain = 0;
  uint64_t touched_shards = 0;
  uint64_t values_received = 0;
  uint64_t misses_received = 0;
  uint64_t delivered_digest = 0xcbf29ce484222325ULL;
  uint64_t failed_reads = 0;
  uint64_t failed_writes = 0;
  uint64_t root_mismatches = 0;

  std::string Fingerprint() const {
    std::ostringstream s;
    s << "gas=" << gas << " tx=" << breakdown.tx
      << " sstore_insert=" << breakdown.storage_insert
      << " sstore_update=" << breakdown.storage_update
      << " sload=" << breakdown.storage_read << " hash=" << breakdown.hash
      << " log=" << breakdown.log << " other=" << breakdown.other
      << " blocks=" << blocks << " delivers=" << delivers
      << " deliver_retries=" << deliver_retries
      << " deliver_rejections=" << deliver_rejections
      << " update_retries=" << update_retries
      << " watchdog_reemits=" << watchdog_reemits
      << " replicas_on_chain=" << replicas_on_chain
      << " touched_shards=" << touched_shards
      << " values=" << values_received << " misses=" << misses_received
      << " delivered=" << std::hex << delivered_digest << std::dec
      << " failed_reads=" << failed_reads << " failed_writes=" << failed_writes
      << " root_mismatches=" << root_mismatches;
    return s.str();
  }
};

/// Compares one epoch slice's outputs with the reference replay. Runs between
/// slices, outside every timed region.
class SliceChecker {
 public:
  SliceChecker(const Inputs& in, core::GrubSystem& system)
      : in_(in), system_(system) {}

  void Check(const workload::Trace& slice, RoundCounts& counts) {
    core::ConsumerContract& du = system_.Consumer();

    // Reads: the received (key, value) multiset must equal the reference
    // values, and the absence callbacks must equal the uncommitted reads.
    std::vector<std::pair<const Bytes*, const Bytes*>> want;
    uint64_t want_misses = 0;
    uint64_t reads = 0;
    for (const auto& op : slice) {
      if (op.type != workload::OpType::kRead) continue;
      const Bytes* value = in_.expected[read_cursor_++];
      reads += 1;
      if (value == nullptr) {
        want_misses += 1;
      } else {
        want.emplace_back(&op.key, value);
      }
    }
    std::vector<std::pair<const Bytes*, const Bytes*>> got;
    for (const auto& [key, value] : du.received()) {
      got.emplace_back(&key, &value);
      counts.delivered_digest =
          Fnv1a(Fnv1a(counts.delivered_digest, key), value);
    }
    auto less = [](const auto& a, const auto& b) {
      return *a.first != *b.first ? *a.first < *b.first : *a.second < *b.second;
    };
    std::sort(want.begin(), want.end(), less);
    std::sort(got.begin(), got.end(), less);
    uint64_t matched = 0;
    for (size_t i = 0, j = 0; i < want.size() && j < got.size();) {
      if (less(want[i], got[j])) {
        ++i;
      } else if (less(got[j], want[i])) {
        ++j;
      } else {
        ++matched, ++i, ++j;
      }
    }
    const uint64_t misses = du.misses_received() - misses_seen_;
    misses_seen_ = du.misses_received();
    matched += std::min(misses, want_misses);
    counts.failed_reads += reads - std::min(reads, matched);
    du.ClearReceived();

    // Writes: every committed value must be provable under the SP's shard
    // root, and the chain, DO and SP must agree on the root of roots.
    const bool roots_agree = RootsAgree();
    if (!roots_agree) counts.root_mismatches += 1;
    std::map<Bytes, const Bytes*> last_write;
    uint64_t writes = 0;
    for (const auto& op : slice) {
      if (op.type != workload::OpType::kWrite) continue;
      last_write[op.key] = &op.value;
      writes += 1;
    }
    uint64_t committed = 0;
    shard::ShardedAdsSp& sp = system_.ShardedSp();
    for (const auto& [key, value] : last_write) {
      auto proof = sp.Get(key);
      const Hash256 shard_root = sp.ShardRoot(sp.Map().ShardOf(key));
      if (proof.ok() && proof.value().record.value == *value &&
          ads::VerifyQuery(shard_root, proof.value())) {
        committed += 1;
      }
    }
    // A key written twice in one epoch commits only its last value.
    if (!roots_agree || committed != last_write.size()) {
      counts.failed_writes += writes;
    }
  }

  bool RootsAgree() {
    static const Word kRootSlot = Sha256::Digest(ToBytes("grub.root"));
    const Hash256 on_chain =
        system_.Chain().StorageOf(system_.ManagerAddress()).Load(kRootSlot);
    return on_chain == system_.Do().Root() &&
           on_chain == system_.ShardedSp().RootOfRoots();
  }

 private:
  const Inputs& in_;
  core::GrubSystem& system_;
  size_t read_cursor_ = 0;
  uint64_t misses_seen_ = 0;
};

void FinishCounts(core::GrubSystem& system, uint64_t start_block,
                  RoundCounts& counts) {
  counts.gas = system.TotalGas();
  counts.breakdown = system.TotalBreakdown();
  counts.blocks = system.Chain().CurrentBlockNumber() - start_block;
  core::SpQuorum& quorum = system.Quorum();
  for (size_t i = 0; i < quorum.ReplicaCount(); ++i) {
    counts.delivers += quorum.Replica(i).delivers_sent();
    counts.deliver_retries += quorum.Replica(i).deliver_retries();
    counts.deliver_rejections += quorum.Replica(i).deliver_rejections();
  }
  counts.update_retries = system.Do().update_retries();
  counts.watchdog_reemits = system.Do().watchdog_reemits();
  counts.replicas_on_chain = system.Do().OnChainReplicas().size();
  counts.values_received = system.Consumer().values_received();
  counts.misses_received = system.Consumer().misses_received();
}

// ------------------------------------------------------------------- rounds

struct Setup {
  std::unique_ptr<core::GrubSystem> system;
  double seconds = 0;
};

Setup BuildSystem(const WorkloadSpec& spec, const Inputs& in, bool telemetry) {
  const auto start = Clock::now();
  Setup s;
  s.system = std::make_unique<core::GrubSystem>(
      MakeOptions(spec, telemetry),
      std::make_unique<core::MemorizingPolicy>(kPolicyK, kPolicyD));
  s.system->Preload(in.preload);
  s.seconds = SecondsSince(start);
  return s;
}

struct UntracedRound {
  double setup_s = 0;
  double drive_s = 0;
  std::vector<double> epoch_s;
  RoundCounts counts;
};

/// Builds a fresh system and drives the trace with one GrubSystem::Drive call
/// per epoch slice; each call is one epoch sample.
UntracedRound RunUntraced(const WorkloadSpec& spec, const Inputs& in) {
  UntracedRound r;
  Setup setup = BuildSystem(spec, in, /*telemetry=*/false);
  r.setup_s = setup.seconds;
  core::GrubSystem& system = *setup.system;
  SliceChecker checker(in, system);
  const uint64_t start_block = system.Chain().CurrentBlockNumber();
  r.epoch_s.reserve(in.slices.size());
  for (const auto& slice : in.slices) {
    const auto start = Clock::now();
    system.Drive(slice);
    r.epoch_s.push_back(SecondsSince(start));
    r.counts.touched_shards += system.Do().LastEpochTouchedShards();
    checker.Check(slice, r.counts);
  }
  for (double s : r.epoch_s) r.drive_s += s;
  FinishCounts(system, start_block, r.counts);
  return r;
}

// Spans of the traced round, children of one root span per epoch.
enum SpanName : uint8_t {
  kEpoch,
  kIngest,
  kRunTx,
  kServe,
  kLiveness,
  kDoEpoch,
  kSpanCount,
};
constexpr const char* kSpanNames[kSpanCount] = {
    "epoch", "ingest", "du.run_tx", "sp.serve", "do.liveness", "do.epoch"};

struct Span {
  SpanName name;
  uint32_t epoch;  // id shared by an epoch's root span and its children
  int64_t start_ns;
  int64_t end_ns;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void Add(SpanName name, uint32_t epoch, int64_t start, int64_t end) {
    spans_.push_back({name, epoch, start, end});
  }

  double BusySeconds(SpanName name) const {
    int64_t ns = 0;
    for (const auto& s : spans_) {
      if (s.name == name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  void WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    for (const auto& s : spans_) {
      out << "{\"name\":\"" << kSpanNames[s.name] << "\",\"epoch\":" << s.epoch
          << ",\"parent\":" << (s.name == kEpoch ? "null" : "\"epoch\"")
          << ",\"start_ns\":" << s.start_ns
          << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << "}\n";
    }
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct TracedRound {
  double drive_s = 0;
  double cpu_s = 0;
  uint64_t polls = 0;
  uint64_t useful_polls = 0;
  uint64_t replica_hits = 0;  // reads answered inside the run tx
  uint64_t epochs = 0;
  std::vector<telemetry::ProbeStats> probes;
  double prove_s = 0;
  double deliver_s = 0;
  RoundCounts counts;
};

double HistogramSum(core::GrubSystem& system, const char* name) {
  for (const auto& inst : system.Metrics()->Registry().Snapshot()) {
    if (inst.name == name) return inst.histogram_sum;
  }
  return 0;
}

/// Re-drives the trace through the public calls GrubSystem::Drive makes
/// (Write / NoteRead + QueueRead, the `run` tx, PollAndServe until idle,
/// CheckReadLiveness, EndEpoch), recording a span around each.
TracedRound RunTraced(const WorkloadSpec& spec, const Inputs& in,
                      SpanRecorder& spans) {
  TracedRound r;
  Setup setup = BuildSystem(spec, in, /*telemetry=*/true);
  core::GrubSystem& system = *setup.system;
  SliceChecker checker(in, system);
  core::ConsumerContract& du = system.Consumer();
  core::DoClient& owner = system.Do();
  const uint64_t start_block = system.Chain().CurrentBlockNumber();
  telemetry::ProfileRegistry::Reset();

  uint32_t epoch_id = 0;
  for (const auto& slice : in.slices) {
    ++epoch_id;
    telemetry::ProfileRegistry::Enable(true);
    const double cpu_start = CpuSeconds();
    const int64_t epoch_start = spans.Now();

    for (const auto& op : slice) {
      if (op.type == workload::OpType::kWrite) {
        system.Write(op.key, op.value);
      } else {
        owner.NoteRead(op.key);
        du.QueueRead(op.key);
      }
    }
    int64_t t = spans.Now();
    spans.Add(kIngest, epoch_id, epoch_start, t);

    if (du.QueuedCount() > 0) {
      chain::Transaction tx;
      tx.from = core::GrubSystem::kUserAccount;
      tx.to = system.ConsumerAddress();
      tx.function = core::ConsumerContract::kRunFn;
      tx.cause = telemetry::GasCause::kGGetSync;
      tx.calldata = core::ConsumerContract::EncodeRun(du.QueuedCount());
      const uint64_t received_before = du.values_received();
      system.Chain().SubmitAndMine(std::move(tx));
      int64_t end = spans.Now();
      spans.Add(kRunTx, epoch_id, t, end);
      r.replica_hits += du.values_received() - received_before;

      size_t served = 0;
      do {
        t = end;
        served = system.Quorum().PollAndServe();
        end = spans.Now();
        spans.Add(kServe, epoch_id, t, end);
        r.polls += 1;
        if (served > 0) r.useful_polls += 1;
      } while (served > 0);

      t = end;
      owner.CheckReadLiveness();
      end = spans.Now();
      spans.Add(kLiveness, epoch_id, t, end);
      t = end;
    }

    owner.EndEpoch();
    const int64_t epoch_end = spans.Now();
    spans.Add(kDoEpoch, epoch_id, t, epoch_end);
    spans.Add(kEpoch, epoch_id, epoch_start, epoch_end);
    r.cpu_s += CpuSeconds() - cpu_start;
    telemetry::ProfileRegistry::Enable(false);

    r.counts.touched_shards += owner.LastEpochTouchedShards();
    checker.Check(slice, r.counts);
  }
  r.epochs = epoch_id;
  r.drive_s = spans.BusySeconds(kEpoch);
  r.probes = telemetry::ProfileRegistry::Snapshot();
  r.prove_s = HistogramSum(system, "sp.prove_seconds");
  r.deliver_s = HistogramSum(system, "sp.deliver_seconds");
  FinishCounts(system, start_block, r.counts);
  return r;
}

// ------------------------------------------------------------------- output

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!first_) json_ += ", ";
    first_ = false;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    json_ += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
             unit + "\"}";
    std::printf("  %-28s %16.6f %s\n", name.c_str(), value, unit);
  }
  const std::string& Json() const { return json_; }

 private:
  std::string json_;
  bool first_ = true;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fingerprint_file;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "feedbench: %s\nusage: feedbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--fingerprint-file PATH] "
               "[--spans-out PATH]\nworkloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--fingerprint-file") {
      a.fingerprint_file = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

/// Cross-run determinism: the first run at a (workload, seed, seconds) key
/// records the fingerprint; every later run must reproduce it.
bool CheckFingerprint(const std::string& path, const std::string& fingerprint) {
  if (path.empty()) return true;
  std::ifstream in(path);
  if (in) {
    std::string recorded;
    std::getline(in, recorded);
    if (recorded != fingerprint) {
      std::fprintf(stderr,
                   "determinism: fingerprint differs from %s\n"
                   "  was: %s\n  now: %s\n",
                   path.c_str(), recorded.c_str(), fingerprint.c_str());
      return false;
    }
    return true;
  }
  std::ofstream(path) << fingerprint << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());

  // The per-round trace is the same in both modes, so the fingerprint is too.
  const Inputs in = MakeInputs(*spec, args.seed, args.seconds);
  // --trace 1 brackets its traced round with two untraced ones, so neither
  // side of the overhead comparison alone runs on a cold heap.
  const size_t rounds = args.trace ? 2 : spec->rounds;
  std::printf("feedbench %s seed=%llu seconds=%g trace=%d\n", spec->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("  build: type=%s GRUB_TELEMETRY=%d GRUB_FAULTS=%d\n",
              FEEDBENCH_BUILD_TYPE, GRUB_TELEMETRY, GRUB_FAULTS);
  std::printf(
      "  runtime: policy=memorizing(%g,%g) ops_per_tx=%zu txs_per_epoch=1 "
      "shards=%zu sp_replicas=1 faults=none adversary=none telemetry=off "
      "tracing=off workload_monitor=off "
      "(traced round: telemetry=on, probes=on)\n",
      kPolicyK, kPolicyD, kOpsPerEpoch, spec->shards);
  std::printf("  inputs: %zu preloaded x %zu B, %zu ops/round (%zu reads, %zu "
              "writes), %zu epochs/round\n",
              in.preload.size(), spec->value_bytes, in.ops, in.reads, in.writes,
              in.slices.size());

  std::vector<UntracedRound> untraced;
  std::vector<double> setup_s;
  std::optional<TracedRound> traced;
  SpanRecorder spans(Clock::now());
  // Peak RSS through the first round: one system built and driven. Later
  // rounds repeat it and only add allocator fragmentation to the peak.
  double peak_rss_mb = 0;
  for (size_t i = 0; i < rounds; ++i) {
    if (args.trace && i == 1) traced = RunTraced(*spec, in, spans);
    untraced.push_back(RunUntraced(*spec, in));
    setup_s.push_back(untraced.back().setup_s);
    if (i == 0) peak_rss_mb = PeakRssMb();
    std::printf("  round %zu: setup %.4f s, drive %.4f s\n", i,
                untraced.back().setup_s, untraced.back().drive_s);
  }

  bool correct = true;
  const RoundCounts& reference = untraced.front().counts;
  const std::string fingerprint = reference.Fingerprint();
  for (const auto& r : untraced) {
    if (r.counts.Fingerprint() != fingerprint) {
      std::fprintf(stderr, "determinism: rounds differ\n  %s\n  %s\n",
                   fingerprint.c_str(), r.counts.Fingerprint().c_str());
      correct = false;
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto tally = [&](const RoundCounts& c) {
    attempted += in.ops;
    failed += c.failed_reads + c.failed_writes;
    // Honest runs: zero rejections, zero retries, zero re-emits, one root.
    if (c.root_mismatches != 0 || c.deliver_rejections != 0 ||
        c.deliver_retries != 0 || c.update_retries != 0 ||
        c.watchdog_reemits != 0) {
      correct = false;
    }
  };
  for (const auto& r : untraced) tally(r.counts);

  Metrics m;
  const double ops = static_cast<double>(in.ops);
  if (!args.trace) {
    // Every round drives the same epochs, so the median over rounds of each
    // epoch's time is one sample that a burst of outside load in a minority
    // of rounds does not move. The drive time is the sum of those medians.
    std::vector<double> epoch_ms(in.slices.size());
    double drive_s = 0;
    for (size_t e = 0; e < epoch_ms.size(); ++e) {
      std::vector<double> per_round;
      for (const auto& r : untraced) per_round.push_back(r.epoch_s[e] * 1e3);
      epoch_ms[e] = Median(std::move(per_round));
      drive_s += epoch_ms[e] * 1e-3;
    }
    std::printf("  %zu epoch samples (median over %zu rounds each)\n",
                epoch_ms.size(), rounds);
    std::printf("  fingerprint: %s\n", fingerprint.c_str());
    m.Add("ops_per_s", ops / drive_s, "1/s");
    using telemetry::PercentileNearestRankD;
    m.Add("epoch_ms_p50", PercentileNearestRankD(epoch_ms, 50), "ms");
    m.Add("epoch_ms_p90", PercentileNearestRankD(epoch_ms, 90), "ms");
    m.Add("gas_per_op", static_cast<double>(reference.gas) / ops, "gas");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const TracedRound& t = *traced;
    std::printf("  traced round: drive %.4f s\n", t.drive_s);
    tally(t.counts);
    // Fidelity: the public-call re-drive must be the same execution.
    if (t.counts.Fingerprint() != fingerprint) {
      std::fprintf(stderr, "fidelity: traced round differs\n  %s\n  %s\n",
                   fingerprint.c_str(), t.counts.Fingerprint().c_str());
      correct = false;
    }
    if (!args.spans_out.empty()) spans.WriteJsonl(args.spans_out);
    std::printf("  fingerprint: %s\n", fingerprint.c_str());

    const double epochs = static_cast<double>(t.epochs);
    for (int s = kIngest; s < kSpanCount; ++s) {
      const double busy = spans.BusySeconds(static_cast<SpanName>(s));
      m.Add(std::string(kSpanNames[s]) + ".busy_s", busy, "s");
      m.Add(std::string(kSpanNames[s]) + ".share", busy / t.drive_s, "ratio");
    }
    using telemetry::ProbeSite;
    auto probe = [&](ProbeSite site) {
      return t.probes[static_cast<size_t>(site)];
    };
    const auto& rebuild = probe(ProbeSite::kMerkleRebuild);
    const auto& sha256 = probe(ProbeSite::kSha256Digest);
    m.Add("ads.merkle_rebuilds", rebuild.count, "count");
    m.Add("ads.merkle_rebuild_s", rebuild.total_ns * 1e-9, "s");
    m.Add("crypto.sha256_per_op", sha256.count / ops, "count");
    m.Add("crypto.sha256_s", sha256.total_ns * 1e-9, "s");
    m.Add("kv.puts_per_op", probe(ProbeSite::kKvPut).count / ops, "count");
    m.Add("kv.gets_per_op", probe(ProbeSite::kKvGet).count / ops, "count");
    m.Add("codec.ops_per_op",
          (probe(ProbeSite::kCodecEncode).count +
           probe(ProbeSite::kCodecDecode).count) / ops,
          "count");
    m.Add("sp.prove_s", t.prove_s, "s");
    m.Add("sp.deliver_s", t.deliver_s, "s");

    const chain::GasBreakdown& g = t.counts.breakdown;
    m.Add("chain.blocks_per_op", t.counts.blocks / ops, "count");
    m.Add("chain.gas_tx_per_op", g.tx / ops, "gas");
    m.Add("chain.gas_storage_per_op",
          (g.storage_insert + g.storage_update) / ops, "gas");
    m.Add("chain.gas_sload_per_op", g.storage_read / ops, "gas");
    m.Add("chain.gas_hash_per_op", g.hash / ops, "gas");
    m.Add("chain.gas_log_per_op", g.log / ops, "gas");

    m.Add("sp.delivers_per_epoch", t.counts.delivers / epochs, "count");
    m.Add("sp.useful_poll_ratio", Ratio(t.useful_polls, t.polls), "ratio");
    m.Add("sp.deliver_retries", t.counts.deliver_retries, "count");
    m.Add("sp.deliver_rejections", t.counts.deliver_rejections, "count");
    m.Add("policy.replica_hit_ratio", Ratio(t.replica_hits, in.reads),
          "ratio");
    m.Add("do.replicas_on_chain", t.counts.replicas_on_chain, "count");
    m.Add("do.update_retries", t.counts.update_retries, "count");
    m.Add("do.watchdog_reemits", t.counts.watchdog_reemits, "count");
    m.Add("shard.touched_per_epoch", t.counts.touched_shards / epochs, "count");
    m.Add("shard.hottest_share", in.hottest_shard_share, "ratio");
    m.Add("proc.cpu_s", t.cpu_s, "s");
    m.Add("proc.cpu_util", t.cpu_s / t.drive_s, "ratio");
    std::vector<double> untraced_drive_s;
    for (const auto& r : untraced) untraced_drive_s.push_back(r.drive_s);
    const double base_s = Median(untraced_drive_s);
    m.Add("trace.overhead_pct", 100.0 * (t.drive_s - base_s) / base_s, "%");
    m.Add("failed_op_ratio", Ratio(failed, attempted), "ratio");
    m.Add("epoch.samples", epochs, "count");
  }

  if (!CheckFingerprint(args.fingerprint_file, fingerprint)) correct = false;
  if (failed != 0) correct = false;
  const char* verdict = correct ? "true" : "false";
  const auto n_attempted = static_cast<unsigned long long>(attempted);
  const auto n_failed = static_cast<unsigned long long>(failed);
  std::printf("  attempted=%llu failed=%llu correct=%s\n", n_attempted,
              n_failed, verdict);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      verdict, n_attempted, n_failed, m.Json().c_str());
  return 0;
}
