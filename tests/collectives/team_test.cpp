#include "collectives/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/composed.hpp"
#include "common/error.hpp"
#include "machine/fiber.hpp"
#include "helpers.hpp"

namespace xbgas {
namespace {

using testing::run_spmd;

TEST(TeamTest, ActiveSetMembershipAndRanks) {
  run_spmd(8, [&](PeContext& pe) {
    // Even PEs form one team, odd PEs another.
    Team team(pe.rank() % 2, 2, 4);
    EXPECT_EQ(team.n_pes(), 4);
    EXPECT_EQ(team.rank(), pe.rank() / 2);
    EXPECT_EQ(team.world_rank(team.rank()), pe.rank());
    EXPECT_TRUE(team.contains_world_rank(pe.rank()));
    EXPECT_FALSE(team.contains_world_rank((pe.rank() + 1) % 8));
  });
}

TEST(TeamTest, NonMemberConstructionThrows) {
  Machine machine(testing::test_config(4));
  EXPECT_THROW(machine.run([&](PeContext&) {
                 xbrtime_init();
                 Team team(0, 2, 2);  // PEs 0 and 2 only; 1 and 3 must throw
               }),
               Error);
}

TEST(TeamTest, ActiveSetMustFitWorld) {
  run_spmd(4, [&](PeContext&) {
    EXPECT_THROW(Team(2, 2, 3), Error);  // 2,4,6 but world is 4
    EXPECT_THROW(Team(0, 1, 5), Error);
    EXPECT_THROW(Team(0, 0, 2), Error);  // zero stride
  });
}

TEST(TeamTest, TeamBarrierOnlySynchronizesMembers) {
  run_spmd(6, [&](PeContext& pe) {
    if (pe.rank() < 3) {
      Team team(0, 1, 3);
      pe.clock().advance(static_cast<std::uint64_t>(pe.rank()) * 100);
      team.barrier();
      // Team members leave with the member max (+ barrier cost); PEs 3-5
      // never participate.
      EXPECT_GE(pe.clock().cycles(), 200u);
    }
    xbrtime_barrier();
  });
}

TEST(TeamTest, BroadcastWithinTeam) {
  run_spmd(8, [&](PeContext& pe) {
    auto* dest = static_cast<int*>(xbrtime_malloc(4 * sizeof(int)));
    std::fill(dest, dest + 4, -1);
    xbrtime_barrier();

    if (pe.rank() % 2 == 0) {  // team of even world ranks
      Team team(0, 2, 4);
      int src[4] = {11, 22, 33, 44};
      broadcast(dest, src, 4, 1, /*team root=*/1, team);  // world rank 2
    }
    xbrtime_barrier();

    if (pe.rank() % 2 == 0) {
      for (int i = 0; i < 4; ++i) EXPECT_EQ(dest[i], 11 * (i + 1));
    } else {
      for (int i = 0; i < 4; ++i) EXPECT_EQ(dest[i], -1);  // untouched
    }
    xbrtime_barrier();
    xbrtime_free(dest);
  });
}

TEST(TeamTest, ReduceWithinTeam) {
  run_spmd(6, [&](PeContext& pe) {
    auto* src = static_cast<int*>(xbrtime_malloc(sizeof(int)));
    *src = pe.rank();
    int out = -1;
    xbrtime_barrier();

    if (pe.rank() >= 2) {  // team = world ranks 2..5
      Team team(2, 1, 4);
      reduce<OpSum>(&out, src, 1, 1, /*team root=*/0, team);
      if (team.rank() == 0) {
        EXPECT_EQ(out, 2 + 3 + 4 + 5);
      } else {
        EXPECT_EQ(out, -1);
      }
    }
    xbrtime_barrier();
    xbrtime_free(src);
  });
}

TEST(TeamTest, DisjointTeamsRunConcurrently) {
  run_spmd(8, [&](PeContext& pe) {
    auto* dest = static_cast<int*>(xbrtime_malloc(sizeof(int)));
    auto* src = static_cast<int*>(xbrtime_malloc(sizeof(int)));
    *src = pe.rank() + 1;
    xbrtime_barrier();

    // Two disjoint halves each run their own reduction simultaneously.
    const int base = pe.rank() < 4 ? 0 : 4;
    Team team(base, 1, 4);
    reduce_all<OpSum>(dest, src, 1, 1, team);
    const int expected = base == 0 ? (1 + 2 + 3 + 4) : (5 + 6 + 7 + 8);
    EXPECT_EQ(*dest, expected);
    xbrtime_barrier();
    xbrtime_free(src);
    xbrtime_free(dest);
  });
}

TEST(TeamTest, GatherWithinTeamUsingStridedMembers) {
  run_spmd(8, [&](PeContext& pe) {
    if (pe.rank() % 2 != 0) {
      xbrtime_barrier();
      return;
    }
    Team team(0, 2, 4);
    const int msgs[4] = {1, 2, 1, 2};
    const int disp[4] = {0, 1, 3, 4};
    std::vector<long> src(2, pe.rank() * 10);
    if (msgs[team.rank()] == 2) src[1] = pe.rank() * 10 + 1;
    std::vector<long> dest(6, -5);
    gather(dest.data(), src.data(), msgs, disp, 6, 0, team);
    if (team.rank() == 0) {
      const std::vector<long> expected{0, 20, 21, 40, 60, 61};
      EXPECT_EQ(dest, expected);
    }
    xbrtime_barrier();
  });
}

TEST(TeamTest, SingletonTeam) {
  run_spmd(3, [&](PeContext& pe) {
    Team team(pe.rank(), 1, 1);
    EXPECT_EQ(team.n_pes(), 1);
    EXPECT_EQ(team.rank(), 0);
    auto* buf = static_cast<int*>(xbrtime_malloc(sizeof(int)));
    int v = pe.rank() * 7;
    broadcast(buf, &v, 1, 1, 0, team);
    EXPECT_EQ(*buf, pe.rank() * 7);
    xbrtime_barrier();
    xbrtime_free(buf);
  });
}

TEST(TeamTest, SequentialTeamsReuseCleanly) {
  run_spmd(4, [&](PeContext& pe) {
    for (int round = 0; round < 3; ++round) {
      Team team(0, 1, 4);
      auto* buf = static_cast<int*>(xbrtime_malloc(sizeof(int)));
      int v = round * 100 + 5;  // broadcast from team rank `round`
      broadcast(buf, &v, 1, 1, round, team);
      EXPECT_EQ(*buf, round * 100 + 5);
      xbrtime_barrier();
      xbrtime_free(buf);
      (void)pe;
    }
  });
}

TEST(TeamRegistryTest, KeyChurnNeverSplitsATeam) {
  // Four pairs of PEs each found and drop their own Team key back to back,
  // on 4 workers with injected yields. Each round the two members hold the
  // team until both have arrived, then drop it together, so often both
  // drop before either founds the next round's team. The last one out then
  // runs the barrier's deleter while its partner founds the next round's
  // barrier under the same key. The deleter must not evict that new entry:
  // if it did, the last one out would found a third barrier, the pair would
  // wait on different barriers, and the watchdog would end the run with a
  // BarrierTimeoutError.
  MachineConfig config = testing::test_config(8);
  config.sched.workers = 4;
  config.sched.yield_inject_prob = 0.1;
  config.sched.yield_inject_seed = 11;
  config.fault.barrier_timeout_ms = 10'000;
  Machine machine(config);
  std::atomic<int> held[4] = {};
  EXPECT_NO_THROW(machine.run([&](PeContext& pe) {
    xbrtime_init();
    const int pair = pe.rank() / 2;
    for (int round = 0; round < 2000; ++round) {
      Team team(2 * pair, 1, 2);
      held[pair].fetch_add(1);
      while (held[pair].load() < 2 * (round + 1)) FiberScheduler::yield();
    }
    xbrtime_close();
  }));
}

}  // namespace
}  // namespace xbgas
