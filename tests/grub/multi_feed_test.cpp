// A feed of a multi-feed deployment is a GrubSystem on a shared chain, driven
// by the same resumable step: a 1-feed deployment must pay, deliver and
// commit exactly what the standalone system does, and interleaved feeds must
// each account only their own Gas per epoch.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <stdexcept>

#include "grub/multi_feed.h"
#include "grub/system.h"
#include "workload/trace.h"
#include "workload/ycsb.h"

namespace grub::core {
namespace {

using workload::MakeKey;

std::vector<std::pair<Bytes, Bytes>> Preload(size_t records,
                                             size_t record_bytes) {
  std::vector<std::pair<Bytes, Bytes>> preload;
  for (uint64_t i = 0; i < records; ++i) {
    preload.emplace_back(MakeKey(i), Bytes(record_bytes, 0x11));
  }
  return preload;
}

workload::Trace YcsbTrace(char letter, size_t records, size_t record_bytes,
                          size_t ops, uint64_t seed = 1) {
  workload::YcsbGenerator gen(workload::YcsbConfig::ByName(letter), records,
                              record_bytes, seed);
  workload::Trace trace;
  gen.Generate(ops, trace);
  return trace;
}

struct OneFeedCase {
  const char* name;
  char ycsb;
  size_t records;
  size_t record_bytes;
  size_t ops;
};

// Without this gtest prints the case as raw bytes, `name`'s address
// included, and the test names ctest registers would change from build to
// build.
void PrintTo(const OneFeedCase& c, std::ostream* os) { *os << c.name; }

class OneFeedMatchesGrubSystem
    : public ::testing::TestWithParam<OneFeedCase> {};

// The grubctl `--feeds X` vs `--workload X` identity, below the CLI. Large
// records split deliver batches across the Ctx(X) bound, and scans expand
// over the live key set: both must drive the same on a shared chain.
TEST_P(OneFeedMatchesGrubSystem, GasValuesAndRoot) {
  const OneFeedCase& c = GetParam();
  const auto preload = Preload(c.records, c.record_bytes);
  const workload::Trace trace =
      YcsbTrace(c.ycsb, c.records, c.record_bytes, c.ops);

  GrubSystem single(SystemOptions{}, MakeBL1());
  single.Preload(preload);
  const std::vector<EpochGas> single_epochs = single.Drive(trace);

  MultiFeedSystem multi;
  multi.AddFeed("feed", SystemOptions{}, MakeBL1());
  multi.Preload(0, preload);
  multi.ResetGasCounters();
  multi.DriveAll({trace});

  EXPECT_EQ(multi.Chain().TotalGasUsed(), single.TotalGas());
  EXPECT_EQ(multi.Stats()[0].gas, single.TotalGas());
  EXPECT_EQ(multi.Consumer(0).values_received(),
            single.Consumer().values_received());
  EXPECT_EQ(multi.Consumer(0).misses_received(),
            single.Consumer().misses_received());
  EXPECT_EQ(multi.Feed(0).Do().Root(), single.Do().Root());
  ASSERT_EQ(multi.Epochs(0).size(), single_epochs.size());
  for (size_t i = 0; i < single_epochs.size(); ++i) {
    EXPECT_EQ(multi.Epochs(0)[i].gas, single_epochs[i].gas) << "epoch " << i;
    EXPECT_EQ(multi.Epochs(0)[i].ops, single_epochs[i].ops) << "epoch " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MultiFeed, OneFeedMatchesGrubSystem,
    ::testing::Values(OneFeedCase{"YcsbB_32B", 'B', 512, 32, 2048},
                      OneFeedCase{"YcsbB_1KiB", 'B', 512, 1024, 2048},
                      OneFeedCase{"YcsbB_2KiB", 'B', 512, 2048, 2048},
                      OneFeedCase{"YcsbE_32B", 'E', 256, 32, 256}));

TEST(MultiFeed, EpochGasCountsOnlyTheFeedsOwnContracts) {
  MultiFeedSystem system;
  SystemOptions oracle;
  oracle.ops_per_tx = 8;
  oracle.enable_workload_monitor = true;
  SystemOptions kv = oracle;
  kv.shards = 2;
  kv.shard_boundaries = IndexedKeyBoundaries(128, 2);
  kv.txs_per_epoch = 2;
  system.AddFeed("oracle", oracle, std::make_unique<MemorylessPolicy>(2));
  system.AddFeed("kv", kv, MakeBL1());
  system.Preload(0, Preload(128, 32));
  system.Preload(1, Preload(128, 256));
  system.ResetGasCounters();

  // Different mixes and lengths, so the feeds' groups interleave unevenly.
  system.DriveAll({YcsbTrace('A', 128, 32, 300, 3),
                   YcsbTrace('B', 128, 256, 200, 4)});

  const auto stats = system.Stats();
  uint64_t summed = 0;
  for (size_t f = 0; f < system.FeedCount(); ++f) {
    uint64_t epoch_gas = 0;
    size_t epoch_ops = 0;
    for (const EpochGas& epoch : system.Epochs(f)) {
      epoch_gas += epoch.gas;
      epoch_ops += epoch.ops;
    }
    EXPECT_GT(epoch_gas, 0u) << stats[f].name;
    EXPECT_EQ(epoch_gas, stats[f].gas) << stats[f].name;
    EXPECT_EQ(epoch_ops, stats[f].ops) << stats[f].name;
    summed += epoch_gas;
#if GRUB_TELEMETRY
    // The feed's monitor heard every one of its epochs, at its own Gas/op.
    const telemetry::WorkloadMonitor* monitor = system.Feed(f).Workload();
    ASSERT_NE(monitor, nullptr);
    EXPECT_EQ(monitor->GasDrift().Samples(), system.Epochs(f).size());
    const EpochGas& last = system.Epochs(f).back();
    EXPECT_DOUBLE_EQ(monitor->GasDrift().LastValue(), last.PerOp());
#endif
  }
  EXPECT_EQ(summed, system.Chain().TotalGasUsed());
}

TEST(MultiFeed, FeedRejectsChainWideOptions) {
  chain::Blockchain chain;
  SystemOptions faults;
  faults.fault_schedule = "sp.deliver.drop@1";
  EXPECT_THROW(GrubSystem(chain, 0, faults, MakeBL1()), std::invalid_argument);
  SystemOptions telemetry;
  telemetry.enable_telemetry = true;
  EXPECT_THROW(GrubSystem(chain, 0, telemetry, MakeBL1()),
               std::invalid_argument);
  SystemOptions tracing;
  tracing.enable_tracing = true;
  EXPECT_THROW(GrubSystem(chain, 0, tracing, MakeBL1()), std::invalid_argument);
  // Nothing was deployed by the rejected feeds.
  GrubSystem feed(chain, 0, SystemOptions{}, MakeBL1());
  EXPECT_EQ(feed.ManagerAddress(), 1u);
}

}  // namespace
}  // namespace grub::core
