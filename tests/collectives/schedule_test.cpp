#include "collectives/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "common/bits.hpp"

namespace xbgas {
namespace {

TEST(ScheduleTest, StageCountIsCeilLog2) {
  EXPECT_EQ(schedule_stages(1), 0);
  EXPECT_EQ(schedule_stages(2), 1);
  EXPECT_EQ(schedule_stages(3), 2);
  EXPECT_EQ(schedule_stages(8), 3);
  EXPECT_EQ(schedule_stages(9), 4);
  EXPECT_EQ(schedule_stages(12), 4);  // the paper's 12-core environment
}

TEST(ScheduleTest, FigureThreeEightPeTree) {
  // Paper Figure 3: the 8-PE binomial broadcast tree with recursive halving.
  // Stage 0: 0->4; stage 1: 0->2, 4->6; stage 2: 0->1, 2->3, 4->5, 6->7.
  const auto edges = broadcast_schedule(8);
  const std::vector<TreeEdge> expected = {
      {0, 0, 4}, {1, 0, 2}, {1, 4, 6},
      {2, 0, 1}, {2, 2, 3}, {2, 4, 5}, {2, 6, 7},
  };
  EXPECT_EQ(edges, expected);
}

TEST(ScheduleTest, BroadcastReachesEveryRankExactlyOnce) {
  for (int n = 1; n <= 33; ++n) {
    const auto edges = broadcast_schedule(n);
    EXPECT_EQ(edges.size(), static_cast<std::size_t>(n - 1));
    std::set<int> reached{0};
    for (const auto& e : edges) {
      // Sender must already hold the data when it sends.
      EXPECT_TRUE(reached.contains(e.from_vrank))
          << "n=" << n << " stage=" << e.stage << " from=" << e.from_vrank;
      // Receiver must not receive twice.
      EXPECT_FALSE(reached.contains(e.to_vrank));
      reached.insert(e.to_vrank);
    }
    EXPECT_EQ(reached.size(), static_cast<std::size_t>(n));
  }
}

TEST(ScheduleTest, BroadcastStagesAreOrdered) {
  const auto edges = broadcast_schedule(16);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LE(edges[i - 1].stage, edges[i].stage);
  }
}

TEST(ScheduleTest, ReduceGathersEveryRankExactlyOnce) {
  for (int n = 1; n <= 33; ++n) {
    const auto edges = reduce_schedule(n);
    EXPECT_EQ(edges.size(), static_cast<std::size_t>(n - 1));
    // Every non-root rank contributes (appears as from) exactly once, and
    // after it has contributed it never acts again.
    std::set<int> consumed;
    for (const auto& e : edges) {
      EXPECT_FALSE(consumed.contains(e.from_vrank)) << "n=" << n;
      EXPECT_FALSE(consumed.contains(e.to_vrank)) << "n=" << n;
      consumed.insert(e.from_vrank);
    }
    EXPECT_EQ(consumed.size(), static_cast<std::size_t>(n - 1));
    EXPECT_FALSE(consumed.contains(0));  // root survives
  }
}

TEST(ScheduleTest, ReduceIsBroadcastReversed) {
  // For power-of-two sizes the reduce tree is the broadcast tree with
  // direction flipped and stages reversed.
  for (int n : {2, 4, 8, 16, 32}) {
    auto fwd = broadcast_schedule(n);
    auto rev = reduce_schedule(n);
    ASSERT_EQ(fwd.size(), rev.size());
    const int stages = schedule_stages(n);
    std::multiset<std::tuple<int, int, int>> fwd_set, rev_set;
    for (const auto& e : fwd) {
      fwd_set.insert({e.stage, e.from_vrank, e.to_vrank});
    }
    for (const auto& e : rev) {
      rev_set.insert({stages - 1 - e.stage, e.to_vrank, e.from_vrank});
    }
    EXPECT_EQ(fwd_set, rev_set) << "n=" << n;
  }
}

TEST(ScheduleTest, MaxStageParallelismDoubles) {
  // Recursive halving: stage s of the broadcast has 2^s concurrent
  // transfers (power-of-two case) — the congestion-minimizing property.
  const auto edges = broadcast_schedule(32);
  std::vector<int> per_stage(5, 0);
  for (const auto& e : edges) ++per_stage[static_cast<std::size_t>(e.stage)];
  EXPECT_EQ(per_stage, (std::vector<int>{1, 2, 4, 8, 16}));
}

TEST(ScheduleTest, SingleAndTwoPeEdgeCases) {
  EXPECT_TRUE(broadcast_schedule(1).empty());
  EXPECT_TRUE(reduce_schedule(1).empty());
  const auto two = broadcast_schedule(2);
  ASSERT_EQ(two.size(), 1u);
  EXPECT_EQ(two[0], (TreeEdge{0, 0, 1}));
}

// -- k-nomial generalization ------------------------------------------------

TEST(KnomialScheduleTest, StageCountIsCeilLogRadix) {
  EXPECT_EQ(knomial_stages(1, 4), 0);
  EXPECT_EQ(knomial_stages(4, 4), 1);
  EXPECT_EQ(knomial_stages(5, 4), 2);
  EXPECT_EQ(knomial_stages(16, 4), 2);
  EXPECT_EQ(knomial_stages(17, 4), 3);
  EXPECT_EQ(knomial_stages(9, 3), 2);
  EXPECT_EQ(knomial_stages(64, 8), 2);
}

// The paper's edges, straight from the mask recurrences of Algorithms 1-2
// (an independent reference: the library no longer runs these loops).
std::vector<TreeEdge> paper_broadcast_edges(int n) {
  std::vector<TreeEdge> edges;
  const auto levels =
      static_cast<int>(ceil_log2(static_cast<std::uint64_t>(n)));
  unsigned mask = (1u << levels) - 1u;
  int stage = 0;
  for (int i = levels - 1; i >= 0; --i, ++stage) {
    mask ^= (1u << i);
    for (unsigned vr = 0; vr < static_cast<unsigned>(n); ++vr) {
      if ((vr & mask) != 0 || (vr & (1u << i)) != 0) continue;
      const int vpart = static_cast<int>(vr ^ (1u << i)) % n;
      if (static_cast<int>(vr) < vpart) {
        edges.push_back(TreeEdge{stage, static_cast<int>(vr), vpart});
      }
    }
  }
  return edges;
}

std::vector<TreeEdge> paper_reduce_edges(int n) {
  std::vector<TreeEdge> edges;
  const auto levels =
      static_cast<int>(ceil_log2(static_cast<std::uint64_t>(n)));
  unsigned mask = (1u << levels) - 1u;
  for (int i = 0; i < levels; ++i) {
    mask ^= (1u << i);
    for (unsigned vr = 0; vr < static_cast<unsigned>(n); ++vr) {
      if ((vr | mask) != mask || (vr & (1u << i)) != 0) continue;
      const int vpart = static_cast<int>(vr ^ (1u << i)) % n;
      if (static_cast<int>(vr) < vpart) {
        edges.push_back(TreeEdge{i, vpart, static_cast<int>(vr)});
      }
    }
  }
  return edges;
}

TEST(KnomialScheduleTest, RadixTwoReproducesBinomialEdgeForEdge) {
  for (int n = 1; n <= 64; ++n) {
    const auto bcast = paper_broadcast_edges(n);
    const auto reduce = paper_reduce_edges(n);
    EXPECT_EQ(knomial_broadcast_schedule(n, 2), bcast) << "n=" << n;
    EXPECT_EQ(broadcast_schedule(n), bcast) << "n=" << n;
    EXPECT_EQ(knomial_reduce_schedule(n, 2), reduce) << "n=" << n;
    EXPECT_EQ(reduce_schedule(n), reduce) << "n=" << n;
  }
}

// The k-nomial tree level by level, sweeping every holder (broadcast) or
// parent (reduce) vrank per stage (an independent reference: the library
// builds the full schedules from the per-PE edges).
std::vector<TreeEdge> level_broadcast_edges(int n, int radix) {
  const int stages = knomial_stages(n, radix);
  std::vector<TreeEdge> edges;
  long long step = 1;
  for (int s = 1; s < stages; ++s) step *= radix;
  for (int s = 0; s < stages; ++s, step /= radix) {
    for (long long v = 0; v < n; v += step * radix) {
      for (long long to = v + step; to < v + step * radix && to < n;
           to += step) {
        edges.push_back(TreeEdge{s, static_cast<int>(v), static_cast<int>(to)});
      }
    }
  }
  return edges;
}

std::vector<TreeEdge> level_reduce_edges(int n, int radix) {
  const int stages = knomial_stages(n, radix);
  std::vector<TreeEdge> edges;
  long long step = 1;
  for (int s = 0; s < stages; ++s, step *= radix) {
    for (long long v = 0; v < n; v += step * radix) {
      for (long long from = v + step; from < v + step * radix && from < n;
           from += step) {
        edges.push_back(
            TreeEdge{s, static_cast<int>(from), static_cast<int>(v)});
      }
    }
  }
  return edges;
}

TEST(KnomialScheduleTest, PerPeEdgesAreTheFullScheduleFiltered) {
  for (const int radix : {2, 3, 4, 8}) {
    for (int n = 1; n <= 64; ++n) {
      const auto bcast = level_broadcast_edges(n, radix);
      const auto reduce = level_reduce_edges(n, radix);
      EXPECT_EQ(knomial_broadcast_schedule(n, radix), bcast)
          << "n=" << n << " radix=" << radix;
      EXPECT_EQ(knomial_reduce_schedule(n, radix), reduce)
          << "n=" << n << " radix=" << radix;
      for (int vr = 0; vr < n; ++vr) {
        std::vector<TreeEdge> sends, pulls;
        for (const auto& e : bcast) {
          if (e.from_vrank == vr) sends.push_back(e);
        }
        for (const auto& e : reduce) {
          if (e.to_vrank == vr) pulls.push_back(e);
        }
        EXPECT_EQ(detail::knomial_broadcast_sends(n, radix, vr), sends)
            << "n=" << n << " radix=" << radix << " vrank=" << vr;
        EXPECT_EQ(detail::knomial_reduce_pulls(n, radix, vr), pulls)
            << "n=" << n << " radix=" << radix << " vrank=" << vr;
      }
    }
  }
}

TEST(KnomialScheduleTest, BroadcastReachesEveryRankExactlyOnce) {
  for (const int radix : {3, 4, 8}) {
    for (int n = 1; n <= 40; ++n) {
      const auto edges = knomial_broadcast_schedule(n, radix);
      EXPECT_EQ(edges.size(), static_cast<std::size_t>(n - 1));
      std::set<int> reached{0};
      for (const auto& e : edges) {
        EXPECT_TRUE(reached.contains(e.from_vrank))
            << "n=" << n << " radix=" << radix << " stage=" << e.stage;
        EXPECT_FALSE(reached.contains(e.to_vrank));
        reached.insert(e.to_vrank);
      }
      EXPECT_EQ(reached.size(), static_cast<std::size_t>(n));
    }
  }
}

TEST(KnomialScheduleTest, ReduceIsBroadcastReversed) {
  for (const int radix : {3, 4, 8}) {
    for (const int n : {5, 9, 16, 27, 33}) {
      const auto bcast = knomial_broadcast_schedule(n, radix);
      const auto reduce = knomial_reduce_schedule(n, radix);
      ASSERT_EQ(bcast.size(), reduce.size()) << "n=" << n << " r=" << radix;
      // Same edge set with from/to swapped; stages mirror across the L
      // stages (broadcast stage s <-> reduce stage L-1-s).
      const int stages = knomial_stages(n, radix);
      std::set<std::tuple<int, int, int>> fwd, rev;
      for (const auto& e : bcast) {
        fwd.insert({e.stage, e.from_vrank, e.to_vrank});
      }
      for (const auto& e : reduce) {
        rev.insert({stages - 1 - e.stage, e.to_vrank, e.from_vrank});
      }
      EXPECT_EQ(fwd, rev) << "n=" << n << " r=" << radix;
    }
  }
}

TEST(KnomialScheduleTest, HigherRadixNeedsFewerStages) {
  // The hierarchy trade: radix 8 on 64 PEs is 2 stages of 7-way fan-out
  // instead of 6 stages of pairwise exchange.
  const auto r8 = knomial_broadcast_schedule(64, 8);
  int max_stage = 0;
  for (const auto& e : r8) max_stage = std::max(max_stage, e.stage);
  EXPECT_EQ(max_stage + 1, 2);
  EXPECT_EQ(knomial_stages(64, 8), 2);
  EXPECT_EQ(knomial_stages(64, 2), 6);
}

}  // namespace
}  // namespace xbgas
