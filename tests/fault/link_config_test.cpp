// Validation of the scripted link/partition fault plan and the kAmo kill
// site: a bad plan is rejected at Machine construction with a typed
// FaultConfigError, an AMO-site kill fires at the victim's k-th remote AMO,
// and the legacy rma site keeps counting AMO issues (superset semantics) so
// pre-existing calibrated kill plans are unaffected by the new site.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "fault/config.hpp"
#include "fault/errors.hpp"
#include "support/modeled_counters.hpp"
#include "trace/collect.hpp"
#include "xbrtime/rma.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {
namespace {

constexpr int kPes = 4;

FaultConfig with_link(int a, int b, LinkFaultMode mode, std::uint64_t at,
                      std::uint64_t heal_at = 0) {
  FaultConfig fc;
  LinkSpec l;
  l.a = a;
  l.b = b;
  l.mode = mode;
  l.at = at;
  l.heal_at = heal_at;
  fc.links.push_back(l);
  return fc;
}

FaultConfig with_partition(int lo, int hi, std::uint64_t at,
                           std::uint64_t heal_at = 0) {
  FaultConfig fc;
  PartitionSpec p;
  p.lo = lo;
  p.hi = hi;
  p.at = at;
  p.heal_at = heal_at;
  fc.partitions.push_back(p);
  return fc;
}

TEST(LinkConfigValidationTest, WellFormedPlansPass) {
  EXPECT_NO_THROW(validate_fault_config(
      with_link(0, 3, LinkFaultMode::kDown, 500), kPes));
  EXPECT_NO_THROW(validate_fault_config(
      with_link(2, 1, LinkFaultMode::kDegraded, 10, 900), kPes));
  EXPECT_NO_THROW(validate_fault_config(with_partition(2, 3, 100), kPes));
  EXPECT_NO_THROW(validate_fault_config(with_partition(0, 0, 1, 50), kPes));
}

TEST(LinkConfigValidationTest, LinkEndpointOutOfRange) {
  EXPECT_THROW(validate_fault_config(
                   with_link(0, kPes, LinkFaultMode::kDown, 1), kPes),
               FaultConfigError);
  EXPECT_THROW(validate_fault_config(
                   with_link(-1, 1, LinkFaultMode::kDown, 1), kPes),
               FaultConfigError);
}

TEST(LinkConfigValidationTest, SelfLoopLinkRejected) {
  EXPECT_THROW(
      validate_fault_config(with_link(2, 2, LinkFaultMode::kDown, 1), kPes),
      FaultConfigError);
}

TEST(LinkConfigValidationTest, ActivationAtCycleZeroRejected) {
  EXPECT_THROW(
      validate_fault_config(with_link(0, 1, LinkFaultMode::kDown, 0), kPes),
      FaultConfigError);
  EXPECT_THROW(validate_fault_config(with_partition(0, 1, 0), kPes),
               FaultConfigError);
}

TEST(LinkConfigValidationTest, HealMustFollowActivation) {
  EXPECT_THROW(validate_fault_config(
                   with_link(0, 1, LinkFaultMode::kDown, 100, 100), kPes),
               FaultConfigError);
  EXPECT_THROW(validate_fault_config(
                   with_link(0, 1, LinkFaultMode::kDown, 100, 50), kPes),
               FaultConfigError);
  EXPECT_THROW(validate_fault_config(with_partition(0, 1, 100, 99), kPes),
               FaultConfigError);
}

TEST(LinkConfigValidationTest, PartitionGroupMustBeAProperSubset) {
  // Not a valid range.
  EXPECT_THROW(validate_fault_config(with_partition(3, 1, 10), kPes),
               FaultConfigError);
  EXPECT_THROW(validate_fault_config(with_partition(0, kPes, 10), kPes),
               FaultConfigError);
  // Covering every rank leaves nothing on the other side.
  EXPECT_THROW(validate_fault_config(with_partition(0, kPes - 1, 10), kPes),
               FaultConfigError);
}

TEST(LinkConfigValidationTest, DegradedBetaBelowOneRejected) {
  FaultConfig fc = with_link(0, 1, LinkFaultMode::kDegraded, 1);
  fc.degraded_beta_factor = 0.5;
  EXPECT_THROW(validate_fault_config(fc, kPes), FaultConfigError);
  fc.degraded_beta_factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_fault_config(fc, kPes), FaultConfigError);
  fc.degraded_beta_factor = 1.0;
  EXPECT_NO_THROW(validate_fault_config(fc, kPes));
}

TEST(LinkConfigValidationTest, AmoKillSpecValidatedLikeOtherSites) {
  FaultConfig fc;
  fc.kills.push_back(KillSpec{1, KillSite::kAmo, 3});
  EXPECT_NO_THROW(validate_fault_config(fc, kPes));
  fc.kills[0].rank = kPes;
  EXPECT_THROW(validate_fault_config(fc, kPes), FaultConfigError);
  fc.kills[0].rank = 1;
  fc.kills[0].at = 0;
  EXPECT_THROW(validate_fault_config(fc, kPes), FaultConfigError);
}

// ---------------------------------------------------------------------------
// Behavioral: the kAmo site fires at the victim's k-th remote AMO, and the
// legacy kRma site still counts AMO issues.
// ---------------------------------------------------------------------------

MachineConfig amo_config(const FaultConfig& fault) {
  MachineConfig c;
  c.n_pes = kPes;
  c.layout =
      MemoryLayout{.private_bytes = 64 * 1024, .shared_bytes = 256 * 1024};
  c.fault = fault;
  return c;
}

/// Every rank issues 5 remote AMO adds to its right neighbor, then a
/// barrier. With a kill scheduled the barrier is poisoned and survivors
/// unwind with PeFailedError.
void amo_body(PeContext& pe) {
  xbrtime_init();
  auto* counter =
      static_cast<std::uint64_t*>(xbrtime_malloc(sizeof(std::uint64_t)));
  *counter = 0;
  xbrtime_barrier();
  const int right = (pe.rank() + 1) % kPes;
  for (int i = 0; i < 5; ++i) {
    (void)xbr_amo_add<std::uint64_t>(counter, 1, right);
  }
  xbrtime_barrier();
  xbrtime_free(counter);
  xbrtime_close();
}

std::string run_amo_kill(KillSite site) {
  FaultConfig fc;
  fc.kills.push_back(KillSpec{1, site, 3});
  fc.barrier_timeout_ms = 20000;  // turn a regression hang into a diagnosis
  Machine machine(amo_config(fc));
  try {
    machine.run([](PeContext& pe) { amo_body(pe); });
    ADD_FAILURE() << "expected the scripted AMO-site kill to fire";
  } catch (const SpmdRegionError& e) {
    EXPECT_FALSE(e.failures().empty());
    if (!e.failures().empty()) {
      EXPECT_EQ(e.failures().front().rank, 1);
      EXPECT_FALSE(e.failures().front().secondary);
    }
  }
  EXPECT_FALSE(machine.alive(1));
  EXPECT_EQ(machine.failed_ranks(), std::vector<int>{1});
  const CounterRegistry counters = collect_counters(machine);
  EXPECT_EQ(counters.get("fault.injected.kills").value(), 1u);
  return testing::modeled_counters(machine).json();
}

TEST(AmoKillSiteTest, KthAmoIssueKillsTheVictim) {
  (void)run_amo_kill(KillSite::kAmo);
}

TEST(AmoKillSiteTest, LegacyRmaSiteStillCountsAmoIssues) {
  // Superset semantics: an AMO is a remote issue, so a kill calibrated
  // against the rma trigger sequence fires at the same point whether the
  // victim's traffic is transfers or atomics.
  (void)run_amo_kill(KillSite::kRma);
}

TEST(AmoKillSiteTest, AmoKillScheduleIsDeterministic) {
  const std::string a = run_amo_kill(KillSite::kAmo);
  const std::string b = run_amo_kill(KillSite::kAmo);
  EXPECT_EQ(a, b) << "the same scripted AMO kill must replay bit-identically";
}

}  // namespace
}  // namespace xbgas
