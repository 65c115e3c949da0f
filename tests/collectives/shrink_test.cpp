// xbr_team_shrink / SurvivorTeam / xbr_team_revoke — survivors of a PE
// death agree on a new team, run collectives on it, and keep going; revoke
// wakes waiters with a typed non-death error.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/policy.hpp"
#include "collectives/shrink.hpp"
#include "trace/collect.hpp"
#include "xbrtime/wc.hpp"

namespace xbgas {
namespace {

MachineConfig config(int n_pes, const FaultConfig& fault = {}) {
  MachineConfig c;
  c.n_pes = n_pes;
  c.layout =
      MemoryLayout{.private_bytes = 64 * 1024, .shared_bytes = 1024 * 1024};
  c.fault = fault;
  return c;
}

TEST(ShrinkTest, ShrinkExcludesDeadRankAndRemapsRanks) {
  constexpr int kPes = 6;
  FaultConfig fc;
  fc.kills.push_back(KillSpec{2, KillSite::kBarrier, 4});
  Machine machine(config(kPes, fc));
  std::vector<std::vector<int>> members(kPes);
  std::vector<int> team_rank(kPes, -1);
  std::vector<int> barriers_ok(kPes, 0);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    try {
      xbrtime_barrier();  // rank 2 dies here
    } catch (const PeFailedError&) {
      auto team = xbr_team_shrink();
      const auto me = static_cast<std::size_t>(pe.rank());
      members[me] = team->members();
      team_rank[me] = team->rank();
      EXPECT_EQ(team->world_rank(team->rank()), pe.rank());
      EXPECT_FALSE(team->contains_world_rank(2));
      EXPECT_TRUE(team->contains_world_rank(pe.rank()));
      for (int i = 0; i < 3; ++i) team->barrier();
      barriers_ok[me] = 1;
    }
  });

  const std::vector<int> survivors{0, 1, 3, 4, 5};
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const auto wr = static_cast<std::size_t>(survivors[i]);
    EXPECT_EQ(members[wr], survivors);
    EXPECT_EQ(team_rank[wr], static_cast<int>(i));
    EXPECT_EQ(barriers_ok[wr], 1) << "post-shrink team barriers must work";
  }
  const CounterRegistry counters = collect_counters(machine);
  EXPECT_EQ(counters.get("recovery.shrinks").value(), 1u);
  EXPECT_EQ(counters.get("recovery.agreements").value(), 1u);
  EXPECT_EQ(counters.get("machine.pes_alive").value(), 5u);
}

TEST(ShrinkTest, CollectivesRunOnTheShrunkenTeam) {
  constexpr int kPes = 6;
  constexpr std::size_t kElems = 32;
  FaultConfig fc;
  fc.kills.push_back(KillSpec{4, KillSite::kBarrier, 8});
  Machine machine(config(kPes, fc));
  std::vector<int> verified(kPes, 0);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    // Symmetric buffers must exist before the death: xbrtime_malloc is a
    // world collective and cannot run once the world barrier is poisoned.
    auto* src = static_cast<std::uint64_t*>(
        xbrtime_malloc(kElems * sizeof(std::uint64_t)));   // barriers #4,#5
    auto* dest = static_cast<std::uint64_t*>(
        xbrtime_malloc(kElems * sizeof(std::uint64_t)));   // barriers #6,#7
    for (std::size_t i = 0; i < kElems; ++i) {
      src[i] = static_cast<std::uint64_t>(pe.rank() + 1);
    }
    try {
      xbrtime_barrier();  // barrier #8: rank 4 dies
    } catch (const PeFailedError&) {
      auto team = xbr_team_shrink();
      dispatch_reduce_all<OpSum>(dest, src, kElems, 1, *team);
      std::uint64_t expect = 0;
      for (const int wr : team->members()) {
        expect += static_cast<std::uint64_t>(wr + 1);
      }
      bool ok = true;
      for (std::size_t i = 0; i < kElems; ++i) ok &= dest[i] == expect;
      verified[static_cast<std::size_t>(pe.rank())] = ok ? 1 : 0;
    }
  });

  for (const int wr : {0, 1, 2, 3, 5}) {
    EXPECT_EQ(verified[static_cast<std::size_t>(wr)], 1)
        << "allreduce over the shrunken team must match the roster sum on "
           "world rank " << wr;
  }
}

TEST(ShrinkTest, SecondDeathShrinksAgain) {
  constexpr int kPes = 8;
  FaultConfig fc;
  fc.kills.push_back(KillSpec{2, KillSite::kBarrier, 4});
  fc.kills.push_back(KillSpec{5, KillSite::kBarrier, 6});
  Machine machine(config(kPes, fc));
  std::vector<std::vector<int>> final_members(kPes);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    std::unique_ptr<SurvivorTeam> team;
    try {
      xbrtime_barrier();  // barrier #4: rank 2 dies
    } catch (const PeFailedError&) {
      team = xbr_team_shrink();  // rendezvous = barrier #5
    }
    try {
      team->barrier();  // barrier #6: rank 5 dies
    } catch (const PeFailedError&) {
      team = xbr_team_shrink(*team);
    }
    final_members[static_cast<std::size_t>(pe.rank())] = team->members();
  });

  const std::vector<int> survivors{0, 1, 3, 4, 6, 7};
  for (const int wr : survivors) {
    EXPECT_EQ(final_members[static_cast<std::size_t>(wr)], survivors);
  }
  EXPECT_EQ(machine.failed_ranks(), (std::vector<int>{2, 5}));
  const CounterRegistry counters = collect_counters(machine);
  EXPECT_EQ(counters.get("recovery.shrinks").value(), 2u);
  EXPECT_EQ(counters.get("fault.injected.kills").value(), 2u);
}

TEST(ShrinkTest, RevokeWakesWaitersWithTypedError) {
  constexpr int kPes = 4;
  Machine machine(config(kPes));
  std::vector<int> saw_revoked(kPes, 0);
  std::vector<int> wrong_type(kPes, 0);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto team = xbr_team_shrink();  // healthy world -> team of everyone
    if (pe.rank() == 0) {
      xbr_team_revoke(*team);
      return;  // never arrives: revocation must wake the others anyway
    }
    try {
      team->barrier();
      wrong_type[static_cast<std::size_t>(pe.rank())] = 1;
    } catch (const PeFailedError&) {
      wrong_type[static_cast<std::size_t>(pe.rank())] = 1;  // not a death!
    } catch (const Error& e) {
      saw_revoked[static_cast<std::size_t>(pe.rank())] =
          std::string(e.what()).find("revoked") != std::string::npos ? 1 : 0;
    }
  });

  for (int r = 1; r < kPes; ++r) {
    EXPECT_EQ(saw_revoked[static_cast<std::size_t>(r)], 1);
    EXPECT_EQ(wrong_type[static_cast<std::size_t>(r)], 0);
  }
  EXPECT_EQ(machine.n_alive(), kPes);  // revocation is not a failure
  const CounterRegistry counters = collect_counters(machine);
  EXPECT_EQ(counters.get("recovery.revokes").value(), 1u);
}

TEST(ShrinkTest, TeamRevokeAlsoWorksOnActiveSetTeams) {
  constexpr int kPes = 4;
  Machine machine(config(kPes));
  std::vector<int> saw_revoked(kPes, 0);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    Team team(0, 1, kPes);
    if (pe.rank() == 1) {
      xbr_team_revoke(team);
      return;
    }
    try {
      team.barrier();
    } catch (const Error& e) {
      saw_revoked[static_cast<std::size_t>(pe.rank())] =
          std::string(e.what()).find("revoked") != std::string::npos ? 1 : 0;
    }
  });

  for (const int r : {0, 2, 3}) {
    EXPECT_EQ(saw_revoked[static_cast<std::size_t>(r)], 1);
  }
}

/// Rank 0 write-combines 42 into rank 1's slot, then every PE of a healthy
/// 4-PE world crosses one barrier of the team `make_team` builds. Returns
/// what rank 1 reads after that barrier.
std::uint64_t wc_put_seen_across_team_barrier(
    const std::function<std::unique_ptr<Communicator>()>& make_team) {
  constexpr int kPes = 4;
  Machine machine(config(kPes));
  std::uint64_t seen = 0;
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* slot =
        static_cast<std::uint64_t*>(xbrtime_malloc(sizeof(std::uint64_t)));
    *slot = 0;
    xbrtime_barrier();
    auto team = make_team();
    if (pe.rank() == 0) {
      xbr_wc_enable();
      const std::uint64_t v = 42;
      xbr_put_wc(slot, &v, 1, 1, 1);  // buffered: nothing has moved yet
    }
    team->barrier();  // a full fence: the buffered put must land first
    if (pe.rank() == 1) seen = *slot;
    team->barrier();
    team.reset();
    xbrtime_free(slot);
    xbrtime_close();
  });
  return seen;
}

TEST(ShrinkTest, SurvivorTeamBarrierIsAFullFence) {
  EXPECT_EQ(wc_put_seen_across_team_barrier([] { return xbr_team_shrink(); }),
            42u);
}

TEST(ShrinkTest, ActiveSetTeamBarrierIsAFullFence) {
  EXPECT_EQ(wc_put_seen_across_team_barrier(
                [] { return std::make_unique<Team>(0, 1, 4); }),
            42u);
}

TEST(ShrinkTest, ShrinkDiscardsPutsBufferedTowardTheDead) {
  // Rank 0 buffers a write-combined put toward rank 3, then rank 3 dies at a
  // scripted barrier kill. Rank 0 waits for the death without entering a
  // barrier (which would flush), so the put is still buffered when it
  // shrinks. xbr_team_shrink must drop it unsent: the new team's first
  // barrier is a full fence and would otherwise deliver it to the dead peer.
  constexpr int kPes = 4;
  FaultConfig fc;
  // init takes barriers #1-#3 and the malloc #4-#5; rank 3 dies at #6.
  fc.kills.push_back(KillSpec{3, KillSite::kBarrier, 6});
  Machine machine(config(kPes, fc));
  std::size_t slot_offset = 0;
  std::vector<std::vector<int>> members(kPes);
  std::size_t buffered_after_shrink = 1;

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* slot =
        static_cast<std::uint64_t*>(xbrtime_malloc(sizeof(std::uint64_t)));
    *slot = 0;
    if (pe.rank() == 0) {
      slot_offset = pe.arena().shared_offset_of(slot);
      xbr_wc_enable();
      const std::uint64_t v = 42;
      xbr_put_wc(slot, &v, 1, 1, 3);
      while (!pe.machine().recovery().failed(3)) {
        FiberScheduler::yield_waiting();
      }
    } else {
      try {
        xbrtime_barrier();  // barrier #6: rank 3 dies here
      } catch (const PeFailedError&) {
      }
    }
    auto team = xbr_team_shrink();
    team->barrier();
    members[static_cast<std::size_t>(pe.rank())] = team->members();
    if (pe.rank() == 0) {
      buffered_after_shrink = pe.xbrtime_state().wc.targets[3].entries.size();
    }
  });

  const std::vector<int> survivors{0, 1, 2};
  for (const int wr : survivors) {
    EXPECT_EQ(members[static_cast<std::size_t>(wr)], survivors);
  }
  EXPECT_EQ(buffered_after_shrink, 0u);
  std::uint64_t dead_slot = 0;
  std::memcpy(&dead_slot, machine.pe(3).arena().shared_at(slot_offset),
              sizeof(dead_slot));
  EXPECT_EQ(dead_slot, 0u) << "a put buffered before the death was flushed "
                              "to the dead peer";
}

}  // namespace
}  // namespace xbgas
