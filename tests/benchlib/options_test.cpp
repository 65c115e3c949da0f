#include "benchlib/options.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace xbgas {
namespace {

constexpr std::string_view kPes[] = {"pes"};

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"bench"};
  v.insert(v.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(v.size()), v.data(), {kMachineFlags, kPes});
}

TEST(OptionsTest, DefaultsMatchPaperEnvironment) {
  const MachineConfig config = machine_config_from_cli(make({}), 4);
  EXPECT_EQ(config.n_pes, 4);
  EXPECT_EQ(config.topology_name, "flat");
  EXPECT_EQ(config.layout.shared_bytes, std::size_t{64} << 20);
  EXPECT_EQ(config.layout.private_bytes, std::size_t{8} << 20);
  EXPECT_EQ(config.net.barrier_algorithm, BarrierAlgorithm::kDissemination);
}

TEST(OptionsTest, FlagsOverrideEverything) {
  const MachineConfig config = machine_config_from_cli(
      make({"--topology", "ring", "--shared-mb", "8", "--private-mb", "1",
            "--fabric-bpc", "2.5", "--link-bpc", "16", "--fabric-mpc", "7",
            "--barrier", "tournament"}),
      6);
  EXPECT_EQ(config.topology_name, "ring");
  EXPECT_EQ(config.layout.shared_bytes, std::size_t{8} << 20);
  EXPECT_EQ(config.layout.private_bytes, std::size_t{1} << 20);
  EXPECT_DOUBLE_EQ(config.net.fabric_bytes_per_cycle, 2.5);
  EXPECT_DOUBLE_EQ(config.net.link_bytes_per_cycle, 16.0);
  EXPECT_EQ(config.net.fabric_message_cycles, 7u);
  EXPECT_EQ(config.net.barrier_algorithm, BarrierAlgorithm::kTournament);
}

TEST(OptionsTest, CentralBarrierSpelling) {
  EXPECT_EQ(machine_config_from_cli(make({"--barrier", "central"}), 2)
                .net.barrier_algorithm,
            BarrierAlgorithm::kCentral);
}

TEST(OptionsTest, UnknownBarrierThrows) {
  EXPECT_THROW(machine_config_from_cli(make({"--barrier", "magic"}), 2),
               Error);
}

TEST(OptionsTest, PeCountsDefaultToPaperSweep) {
  EXPECT_EQ(pe_counts_from_cli(make({})), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(pe_counts_from_cli(make({"--pes", "3,6,12"})),
            (std::vector<int>{3, 6, 12}));
}

TEST(OptionsTest, FaultKillParsesAmoSite) {
  const MachineConfig config =
      machine_config_from_cli(make({"--fault-kill", "2:amo:5"}), 4);
  ASSERT_EQ(config.fault.kills.size(), 1u);
  EXPECT_EQ(config.fault.kills[0].rank, 2);
  EXPECT_EQ(config.fault.kills[0].site, KillSite::kAmo);
  EXPECT_EQ(config.fault.kills[0].at, 5u);
  EXPECT_THROW(machine_config_from_cli(make({"--fault-kill", "2:mystery:5"}), 4),
               Error);
}

TEST(OptionsTest, FaultLinkParsesModeWindowAndList) {
  const MachineConfig config = machine_config_from_cli(
      make({"--fault-link", "0-3:down@500,1-2:degraded@10@900"}), 4);
  ASSERT_EQ(config.fault.links.size(), 2u);
  EXPECT_EQ(config.fault.links[0].a, 0);
  EXPECT_EQ(config.fault.links[0].b, 3);
  EXPECT_EQ(config.fault.links[0].mode, LinkFaultMode::kDown);
  EXPECT_EQ(config.fault.links[0].at, 500u);
  EXPECT_EQ(config.fault.links[0].heal_at, 0u);
  EXPECT_EQ(config.fault.links[1].a, 1);
  EXPECT_EQ(config.fault.links[1].b, 2);
  EXPECT_EQ(config.fault.links[1].mode, LinkFaultMode::kDegraded);
  EXPECT_EQ(config.fault.links[1].at, 10u);
  EXPECT_EQ(config.fault.links[1].heal_at, 900u);
}

TEST(OptionsTest, FaultLinkRejectsBadSyntaxAndMode) {
  EXPECT_THROW(machine_config_from_cli(make({"--fault-link", "0-1"}), 4),
               Error);
  EXPECT_THROW(
      machine_config_from_cli(make({"--fault-link", "0-1:flaky@5"}), 4),
      Error);
}

TEST(OptionsTest, FaultPartitionParsesGroupAndHeal) {
  const MachineConfig config = machine_config_from_cli(
      make({"--fault-partition", "0-31@2000,48-63@100@400"}), 64);
  ASSERT_EQ(config.fault.partitions.size(), 2u);
  EXPECT_EQ(config.fault.partitions[0].lo, 0);
  EXPECT_EQ(config.fault.partitions[0].hi, 31);
  EXPECT_EQ(config.fault.partitions[0].at, 2000u);
  EXPECT_EQ(config.fault.partitions[0].heal_at, 0u);
  EXPECT_EQ(config.fault.partitions[1].lo, 48);
  EXPECT_EQ(config.fault.partitions[1].hi, 63);
  EXPECT_EQ(config.fault.partitions[1].heal_at, 400u);
  EXPECT_THROW(machine_config_from_cli(make({"--fault-partition", "7@9"}), 16),
               Error);
}

/// The what() of the xbgas::Error that parsing `flag value` throws, or ""
/// if it throws none.
std::string fault_list_error(const char* flag, const char* value) {
  try {
    (void)machine_config_from_cli(make({flag, value}), 4);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(OptionsTest, FaultKillFieldsParseStrictly) {
  for (const char* bad : {"a:barrier:3", "1:barrier:", "1:barrier:3x",
                          "1:barrier:99999999999999999999", "1:barrier:-2",
                          "1:barrier:3,", "4294967297:barrier:3"}) {
    EXPECT_NE(fault_list_error("--fault-kill", bad).find("--fault-kill"),
              std::string::npos)
        << "value: " << bad;
  }
}

TEST(OptionsTest, FaultLinkFieldsParseStrictly) {
  for (const char* bad : {"0-1:down@5zz", "x-1:down@5", "0-1:down@5@",
                          "0-1:degraded@5@9q"}) {
    EXPECT_NE(fault_list_error("--fault-link", bad).find("--fault-link"),
              std::string::npos)
        << "value: " << bad;
  }
}

TEST(OptionsTest, FaultPartitionFieldsParseStrictly) {
  for (const char* bad : {"0-x@5", "0-3@", "0-3@5@1e3"}) {
    EXPECT_NE(
        fault_list_error("--fault-partition", bad).find("--fault-partition"),
        std::string::npos)
        << "value: " << bad;
  }
}

TEST(OptionsTest, DegradedLinkCostKnobs) {
  const MachineConfig defaults = machine_config_from_cli(make({}), 4);
  EXPECT_DOUBLE_EQ(defaults.fault.degraded_beta_factor, 4.0);
  EXPECT_EQ(defaults.fault.degraded_alpha_cycles, 0u);
  const MachineConfig config = machine_config_from_cli(
      make({"--fault-link-beta", "2.5", "--fault-link-alpha", "200"}), 4);
  EXPECT_DOUBLE_EQ(config.fault.degraded_beta_factor, 2.5);
  EXPECT_EQ(config.fault.degraded_alpha_cycles, 200u);
}

TEST(OptionsTest, ConfigBuildsAWorkingMachine) {
  const MachineConfig config = machine_config_from_cli(
      make({"--topology", "cluster2x4", "--shared-mb", "1", "--private-mb",
            "1"}),
      4);
  Machine machine(config);
  EXPECT_EQ(machine.network().topology().name(), "cluster2x4");
  EXPECT_EQ(machine.n_pes(), 4);
}

}  // namespace
}  // namespace xbgas
