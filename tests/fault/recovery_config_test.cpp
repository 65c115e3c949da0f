// Fault-plan validation — a bad FaultConfig must be rejected with a typed
// FaultConfigError at Machine construction (before any PE thread runs), and
// the CLI front-end must reject nonsense flags the same way.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "benchlib/options.hpp"
#include "fault/errors.hpp"
#include "machine/machine.hpp"

namespace xbgas {
namespace {

MachineConfig base_config(int n_pes = 2) {
  MachineConfig c;
  c.n_pes = n_pes;
  c.layout =
      MemoryLayout{.private_bytes = 64 * 1024, .shared_bytes = 256 * 1024};
  return c;
}

void expect_rejected(const MachineConfig& config, const std::string& needle) {
  try {
    Machine machine(config);
    FAIL() << "expected FaultConfigError mentioning \"" << needle << "\"";
  } catch (const FaultConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(RecoveryConfigTest, ProbabilityAboveOneIsRejected) {
  MachineConfig c = base_config();
  c.fault.rma_drop_prob = 1.5;
  expect_rejected(c, "rma_drop_prob");
}

TEST(RecoveryConfigTest, NegativeProbabilityIsRejected) {
  MachineConfig c = base_config();
  c.fault.rma_delay_prob = -0.1;
  expect_rejected(c, "rma_delay_prob");
}

TEST(RecoveryConfigTest, NanProbabilityIsRejected) {
  MachineConfig c = base_config();
  c.fault.rma_bitflip_prob = std::nan("");
  expect_rejected(c, "rma_bitflip_prob");
}

TEST(RecoveryConfigTest, AmoDropProbabilityAboveOneIsRejected) {
  MachineConfig c = base_config();
  c.fault.amo_drop_prob = 1.01;
  expect_rejected(c, "amo_drop_prob");
}

TEST(RecoveryConfigTest, NegativeAmoDelayProbabilityIsRejected) {
  MachineConfig c = base_config();
  c.fault.amo_delay_prob = -0.2;
  expect_rejected(c, "amo_delay_prob");
}

TEST(RecoveryConfigTest, NegativeRetryBudgetIsRejected) {
  MachineConfig c = base_config();
  c.fault.max_rma_retries = -1;
  expect_rejected(c, "max_rma_retries");
}

TEST(RecoveryConfigTest, ZeroBackoffWithRetriesIsRejected) {
  // Retries with a zero backoff base would be charged zero modeled time,
  // silently understating the cost of resilience.
  MachineConfig c = base_config();
  c.fault.max_rma_retries = 3;
  c.fault.backoff_base_cycles = 0;
  expect_rejected(c, "backoff_base_cycles");
}

TEST(RecoveryConfigTest, ZeroBackoffWithoutRetriesIsFine) {
  MachineConfig c = base_config();
  c.fault.max_rma_retries = 0;
  c.fault.backoff_base_cycles = 0;
  EXPECT_NO_THROW(Machine machine(c));
}

TEST(RecoveryConfigTest, KillRankOutOfRangeIsRejected) {
  MachineConfig c = base_config(4);
  c.fault.kills.push_back(KillSpec{4, KillSite::kBarrier, 1});
  expect_rejected(c, "out of range");
}

TEST(RecoveryConfigTest, KillAtZeroIsRejected) {
  // Trigger counts are 1-based; at=0 would schedule a kill that never fires.
  MachineConfig c = base_config(4);
  c.fault.kills.push_back(KillSpec{1, KillSite::kAgree, 0});
  expect_rejected(c, "1-based");
}

TEST(RecoveryConfigTest, KillSiteNoneIsRejected) {
  MachineConfig c = base_config(4);
  c.fault.kills.push_back(KillSpec{1, KillSite::kNone, 1});
  expect_rejected(c, "site=none");
}

TEST(RecoveryConfigTest, ValidPlanConstructs) {
  MachineConfig c = base_config(4);
  c.fault.rma_drop_prob = 0.05;
  c.fault.kills.push_back(KillSpec{2, KillSite::kBarrier, 3});
  c.fault.kills.push_back(KillSpec{0, KillSite::kRma, 1});
  EXPECT_NO_THROW(Machine machine(c));
}

// -- CLI front-end --

MachineConfig from_flags(std::vector<const char*> argv, int n_pes = 4) {
  argv.insert(argv.begin(), "test");
  const CliArgs args(static_cast<int>(argv.size()), argv.data(),
                     {kMachineFlags});
  return machine_config_from_cli(args, n_pes);
}

TEST(RecoveryConfigTest, CliZeroTimeoutIsRejected) {
  EXPECT_THROW(from_flags({"--fault-timeout-ms", "0"}), FaultConfigError);
}

TEST(RecoveryConfigTest, CliNegativeTimeoutIsRejected) {
  EXPECT_THROW(from_flags({"--fault-timeout-ms", "-5"}), FaultConfigError);
}

TEST(RecoveryConfigTest, CliOmittedTimeoutDisablesWatchdog) {
  const MachineConfig c = from_flags({});
  EXPECT_EQ(c.fault.barrier_timeout_ms, 0u);
}

TEST(RecoveryConfigTest, CliZeroAgreeTimeoutIsRejected) {
  EXPECT_THROW(from_flags({"--fault-agree-timeout-ms", "0"}),
               FaultConfigError);
}

TEST(RecoveryConfigTest, CliNegativeAgreeTimeoutIsRejected) {
  EXPECT_THROW(from_flags({"--fault-agree-timeout-ms", "-100"}),
               FaultConfigError);
}

TEST(RecoveryConfigTest, CliOmittedAgreeTimeoutKeepsSafetyNet) {
  // agree_timeout_ms = 0 means "no dedicated watchdog": the agreement board
  // falls back to its 60 s safety net rather than failing fast.
  const MachineConfig c = from_flags({});
  EXPECT_EQ(c.fault.agree_timeout_ms, 0u);
}

TEST(RecoveryConfigTest, CliAgreeTimeoutParses) {
  const MachineConfig c = from_flags({"--fault-agree-timeout-ms", "250"});
  EXPECT_EQ(c.fault.agree_timeout_ms, 250u);
}

TEST(RecoveryConfigTest, CliAmoFaultFlagsParse) {
  const MachineConfig c =
      from_flags({"--fault-amo-drop", "0.25", "--fault-amo-delay", "0.1"});
  EXPECT_DOUBLE_EQ(c.fault.amo_drop_prob, 0.25);
  EXPECT_DOUBLE_EQ(c.fault.amo_delay_prob, 0.1);
}

TEST(RecoveryConfigTest, CliKillListParsesAllEntries) {
  const MachineConfig c =
      from_flags({"--fault-kill", "3:barrier:11,7:rma:4,0:agree:1"});
  ASSERT_EQ(c.fault.kills.size(), 3u);
  EXPECT_EQ(c.fault.kills[0].rank, 3);
  EXPECT_EQ(c.fault.kills[0].site, KillSite::kBarrier);
  EXPECT_EQ(c.fault.kills[0].at, 11u);
  EXPECT_EQ(c.fault.kills[1].rank, 7);
  EXPECT_EQ(c.fault.kills[1].site, KillSite::kRma);
  EXPECT_EQ(c.fault.kills[1].at, 4u);
  EXPECT_EQ(c.fault.kills[2].rank, 0);
  EXPECT_EQ(c.fault.kills[2].site, KillSite::kAgree);
  EXPECT_EQ(c.fault.kills[2].at, 1u);
}

TEST(RecoveryConfigTest, CliBadKillSiteIsRejected) {
  EXPECT_THROW(from_flags({"--fault-kill", "2:everywhere:3"}), Error);
}

TEST(RecoveryConfigTest, CliMalformedKillSpecIsRejected) {
  EXPECT_THROW(from_flags({"--fault-kill", "2:barrier"}), Error);
}

TEST(RecoveryConfigTest, CliKillOutOfRangeIsRejectedAtConstruction) {
  // Parsing is permissive about rank range; the Machine constructor is not.
  const MachineConfig c = from_flags({"--fault-kill", "9:barrier:1"});
  expect_rejected(c, "out of range");
}

}  // namespace
}  // namespace xbgas
