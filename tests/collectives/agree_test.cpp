// xbr_agree — fault-tolerant agreement: bitwise-identical decisions on
// every survivor, leader takeover when the leader dies mid-agreement, and a
// typed timeout when a participant neither contributes nor fails.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "collectives/agree.hpp"
#include "collectives/shrink.hpp"
#include "trace/collect.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {
namespace {

MachineConfig config(int n_pes, const FaultConfig& fault = {}) {
  MachineConfig c;
  c.n_pes = n_pes;
  c.layout =
      MemoryLayout{.private_bytes = 64 * 1024, .shared_bytes = 512 * 1024};
  c.fault = fault;
  return c;
}

TEST(AgreeTest, HealthyAgreementIsIdenticalEverywhere) {
  constexpr int kPes = 4;
  Machine machine(config(kPes));
  std::vector<AgreeResult> results(kPes);
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    // Each rank clears its own bit; AND-agreement must clear all of them.
    const std::uint64_t flag = ~(std::uint64_t{1} << pe.rank());
    results[static_cast<std::size_t>(pe.rank())] = xbr_agree(flag);
    xbrtime_close();
  });

  const std::vector<int> everyone{0, 1, 2, 3};
  for (const AgreeResult& r : results) {
    EXPECT_EQ(r.roster, everyone);
    EXPECT_EQ(r.flag, ~std::uint64_t{0xF});
    EXPECT_EQ(r.epoch, 1u);
  }
  EXPECT_EQ(machine.recovery().epoch(), 1u);
  const CounterRegistry counters = collect_counters(machine);
  EXPECT_EQ(counters.get("recovery.agreements").value(), 1u);
}

TEST(AgreeTest, AgreementExcludesDeadRankAndRegionRecovers) {
  constexpr int kPes = 4;
  FaultConfig fc;
  fc.kills.push_back(KillSpec{2, KillSite::kBarrier, 4});  // first post-init
  Machine machine(config(kPes, fc));
  std::vector<std::vector<int>> rosters(kPes);

  // Must NOT throw: every failure is an acknowledged primary.
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    try {
      xbrtime_barrier();  // barrier #4: rank 2 dies, survivors unwind
      FAIL() << "world barrier should have been poisoned";
    } catch (const PeFailedError& e) {
      EXPECT_EQ(e.failed_rank(), 2);
      const AgreeResult ag = xbr_agree(~std::uint64_t{0});
      rosters[static_cast<std::size_t>(pe.rank())] = ag.roster;
    }
    // No xbrtime_close: the world barrier stays poisoned after a death.
  });

  const std::vector<int> survivors{0, 1, 3};
  for (const int r : survivors) {
    EXPECT_EQ(rosters[static_cast<std::size_t>(r)], survivors);
  }
  EXPECT_EQ(machine.n_alive(), 3);
  EXPECT_EQ(machine.failed_ranks(), std::vector<int>{2});
  const CounterRegistry counters = collect_counters(machine);
  EXPECT_EQ(counters.get("recovery.agreements").value(), 1u);
  EXPECT_EQ(counters.get("fault.injected.kills").value(), 1u);
}

TEST(AgreeTest, LeaderDeathMidAgreementMovesDecisionDuty) {
  // Rank 0 — the would-be leader — dies at its first agreement step,
  // before contributing. The duty falls to rank 1 and the decision excludes
  // rank 0 on every survivor.
  constexpr int kPes = 4;
  FaultConfig fc;
  fc.kills.push_back(KillSpec{0, KillSite::kAgree, 1});
  Machine machine(config(kPes, fc));
  std::vector<AgreeResult> results(kPes);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    results[static_cast<std::size_t>(pe.rank())] = xbr_agree(~std::uint64_t{0});
  });

  const std::vector<int> survivors{1, 2, 3};
  for (const int r : survivors) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)].roster, survivors);
    EXPECT_EQ(results[static_cast<std::size_t>(r)].flag, ~std::uint64_t{0});
  }
  EXPECT_EQ(machine.failed_ranks(), std::vector<int>{0});
}

TEST(AgreeTest, DeathAfterContributionIsStillExcludedByShrink) {
  // Rank 1 dies at its second agreement step — *after* publishing its
  // contribution. Depending on timing the first decision may or may not
  // still include rank 1; xbr_team_shrink's retry loop converges to the
  // true survivor set either way.
  constexpr int kPes = 4;
  FaultConfig fc;
  fc.kills.push_back(KillSpec{1, KillSite::kAgree, 2});
  Machine machine(config(kPes, fc));
  std::vector<std::vector<int>> rosters(kPes);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto team = xbr_team_shrink();
    rosters[static_cast<std::size_t>(pe.rank())] = team->members();
  });

  const std::vector<int> survivors{0, 2, 3};
  for (const int r : survivors) {
    EXPECT_EQ(rosters[static_cast<std::size_t>(r)], survivors);
  }
  EXPECT_EQ(machine.failed_ranks(), std::vector<int>{1});
}

TEST(AgreeTest, TimeoutNamesTheMissingRank) {
  // Rank 1 never joins the agreement (and never fails), so rank 0's wait
  // must end in AgreementTimeoutError naming rank 1 — a diagnosis, not a
  // hang.
  FaultConfig fc;
  fc.agree_timeout_ms = 200;  // the agreement's own watchdog, not the barrier's
  Machine machine(config(2, fc));
  try {
    machine.run([&](PeContext& pe) {
      xbrtime_init();
      if (pe.rank() == 0) xbr_agree(0);
    });
    FAIL() << "expected the agreement to time out";
  } catch (const SpmdRegionError& e) {
    ASSERT_FALSE(e.failures().empty());
    const PeFailure& primary = e.failures().front();
    EXPECT_EQ(primary.rank, 0);
    EXPECT_NE(primary.what.find("xbr_agree timed out"), std::string::npos);
    EXPECT_NE(primary.what.find("from ranks [1]"), std::string::npos)
        << primary.what;
  }
}

}  // namespace
}  // namespace xbgas
