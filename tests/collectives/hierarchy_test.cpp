#include "collectives/hierarchy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "collectives/nbi.hpp"
#include "common/error.hpp"
#include "helpers.hpp"

namespace xbgas {
namespace {

using testing::run_spmd;

// ---------------------------------------------------------------------------
// Engine-level sweep: every collective kind x hierarchy depth {1,2,3} x
// k-nomial radix {2,4,8}, against the sequential golden model, including
// non-power-of-two PE counts and non-leader roots.
// ---------------------------------------------------------------------------

void check_engine(int n, const std::vector<int>& groups, int radix, int root,
                  std::size_t nelems) {
  run_spmd(n, [&](PeContext& pe) {
    const HierShape shape{groups, radix, 0};
    const std::size_t cap = std::max<std::size_t>(nelems, 1);
    auto* dest = static_cast<long*>(xbrtime_malloc(cap * sizeof(long)));
    auto* all = static_cast<long*>(
        xbrtime_malloc(cap * static_cast<std::size_t>(n) * sizeof(long)));
    std::vector<long> src(cap);
    for (std::size_t i = 0; i < nelems; ++i) {
      src[i] = pe.rank() * 100 + static_cast<long>(i) + 1;
    }
    const std::string where = "n=" + std::to_string(n) + " depth=" +
                              std::to_string(groups.size() + 1) + " radix=" +
                              std::to_string(radix) + " root=" +
                              std::to_string(root) + " pe=" +
                              std::to_string(pe.rank());

    std::fill(dest, dest + cap, -1);
    xbrtime_barrier();
    hier_broadcast(dest, src.data(), nelems, 1, root, shape);
    for (std::size_t i = 0; i < nelems; ++i) {
      EXPECT_EQ(dest[i], root * 100 + static_cast<long>(i) + 1)
          << "broadcast " << where;
    }
    xbrtime_barrier();

    hier_reduce<OpSum>(dest, src.data(), nelems, 1, root, shape);
    if (pe.rank() == root) {
      for (std::size_t i = 0; i < nelems; ++i) {
        const long want = 100 * (n - 1) * n / 2 +
                          n * (static_cast<long>(i) + 1);
        EXPECT_EQ(dest[i], want) << "reduce " << where;
      }
    }
    xbrtime_barrier();

    hier_reduce_all<OpSum>(dest, src.data(), nelems, 1, shape);
    for (std::size_t i = 0; i < nelems; ++i) {
      const long want = 100 * (n - 1) * n / 2 + n * (static_cast<long>(i) + 1);
      EXPECT_EQ(dest[i], want) << "reduce_all " << where;
    }
    xbrtime_barrier();

    if (nelems > 0) {
      hier_fcollect(all, src.data(), nelems, shape);
      for (int p = 0; p < n; ++p) {
        for (std::size_t i = 0; i < nelems; ++i) {
          EXPECT_EQ(all[static_cast<std::size_t>(p) * nelems + i],
                    p * 100 + static_cast<long>(i) + 1)
              << "fcollect " << where;
        }
      }
      xbrtime_barrier();
    }
    xbrtime_free(all);
    xbrtime_free(dest);
  });
}

// (n, groups) shapes: depth 1 (flat k-nomial), depth 2, depth 3; power-of-two
// and awkward PE counts.
struct EngineShape {
  int n;
  std::vector<int> groups;
};

const EngineShape kEngineShapes[] = {
    {6, {}},      {8, {}},                      // depth 1
    {8, {4}},     {12, {4}}, {6, {3}}, {9, {3}},  // depth 2
    {8, {2, 4}},  {12, {2, 6}}, {16, {2, 8}},     // depth 3
};

class HierarchyEngineSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HierarchyEngineSweep, MatchesGolden) {
  const auto [shape_idx, radix] = GetParam();
  const EngineShape& s = kEngineShapes[shape_idx];
  check_engine(s.n, s.groups, radix, /*root=*/0, 24);
  check_engine(s.n, s.groups, radix, /*root=*/s.n - 1, 24);
}

INSTANTIATE_TEST_SUITE_P(
    DepthByRadix, HierarchyEngineSweep,
    ::testing::Combine(::testing::Range(0, 9), ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& tpi) {
      const EngineShape& s = kEngineShapes[std::get<0>(tpi.param)];
      std::string name = "n" + std::to_string(s.n) + "_d" +
                         std::to_string(s.groups.size() + 1) + "_r" +
                         std::to_string(std::get<1>(tpi.param));
      for (const int g : s.groups) name += "_g" + std::to_string(g);
      return name;
    });

TEST(HierarchyEngineTest, ZeroElements) {
  check_engine(8, {2, 4}, 4, /*root=*/3, 0);
}

TEST(HierarchyEngineTest, RejectsBadShapes) {
  run_spmd(6, [&](PeContext&) {
    long d = 0, s = 0;
    // group does not divide n
    EXPECT_THROW(hier_broadcast(&d, &s, 1, 1, 0, HierShape{{4}, 2, 0}),
                 Error);
    // non-ascending / broken divisibility chain
    EXPECT_THROW(validate_hier_shape(HierShape{{3, 2}, 2, 0}, 12), Error);
    EXPECT_THROW(validate_hier_shape(HierShape{{4, 6}, 2, 0}, 12), Error);
    // radix below 2
    EXPECT_THROW(validate_hier_shape(HierShape{{3}, 1, 0}, 6), Error);
    // group covering the whole world is not a hierarchy level
    EXPECT_THROW(validate_hier_shape(HierShape{{6}, 2, 0}, 6), Error);
  });
}

// ---------------------------------------------------------------------------
// Two-level broadcast: hier_broadcast with one group level.
// ---------------------------------------------------------------------------

void check_hierarchical(int n, int root, int group_size, std::size_t nelems) {
  run_spmd(n, [&](PeContext& pe) {
    auto* dest = static_cast<long*>(
        xbrtime_malloc(std::max<std::size_t>(nelems, 1) * sizeof(long)));
    std::fill(dest, dest + std::max<std::size_t>(nelems, 1), -8);
    std::vector<long> src(std::max<std::size_t>(nelems, 1));
    for (std::size_t i = 0; i < nelems; ++i) {
      src[i] = root * 1000 + static_cast<long>(i);
    }
    xbrtime_barrier();
    hier_broadcast(dest, src.data(), nelems, 1, root,
                   HierShape{{group_size}, /*radix=*/2, /*chunk=*/0});
    for (std::size_t i = 0; i < nelems; ++i) {
      EXPECT_EQ(dest[i], root * 1000 + static_cast<long>(i))
          << "pe=" << pe.rank() << " n=" << n << " root=" << root
          << " group=" << group_size;
    }
    xbrtime_barrier();
    xbrtime_free(dest);
  });
}

using HierCase = std::tuple<int, int, int>;  // (n, root, group_size)

class HierarchicalSweep : public ::testing::TestWithParam<HierCase> {};

TEST_P(HierarchicalSweep, DeliversEverywhere) {
  const auto [n, root, group] = GetParam();
  check_hierarchical(n, root, group, 24);
}

std::vector<HierCase> hier_cases() {
  std::vector<HierCase> out;
  for (const auto& [n, group] :
       {std::pair{4, 2}, std::pair{8, 2}, std::pair{8, 4}, std::pair{6, 3},
        std::pair{6, 2}, std::pair{9, 3}, std::pair{12, 4}, std::pair{12, 3}}) {
    for (int root : {0, 1, n - 1}) {
      out.emplace_back(n, root, group);
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierarchicalSweep, ::testing::ValuesIn(hier_cases()),
    [](const ::testing::TestParamInfo<HierCase>& tpi) {
      return "n" + std::to_string(std::get<0>(tpi.param)) + "_root" +
             std::to_string(std::get<1>(tpi.param)) + "_g" +
             std::to_string(std::get<2>(tpi.param));
    });

TEST(HierarchicalBroadcastTest, ZeroElements) {
  check_hierarchical(8, 3, 4, 0);
}

TEST(HierarchicalBroadcastTest, RejectsIndivisibleGroups) {
  Machine machine(testing::test_config(6));
  EXPECT_THROW(machine.run([&](PeContext&) {
                 xbrtime_init();
                 auto* d = static_cast<int*>(xbrtime_malloc(16));
                 int s = 0;
                 hier_broadcast(d, &s, 1, 1, 0, HierShape{{4}, 2, 0});
               }),
               Error);
}

TEST(HierarchicalBroadcastTest, FewerInterNodeTransfersThanFlatTree) {
  // The point of the optimization: on a cluster fabric (cheap on-node
  // links, expensive node-boundary crossings — the structure the OLB
  // exposes) with a root that is not node-aligned, the flat binomial tree
  // crosses node boundaries at several stages while the two-level scheme
  // crosses exactly once per remote node.
  MachineConfig config = testing::test_config(8);
  config.topology_name = "cluster4x8";  // nodes of 4, boundary costs 8 hops
  config.net.per_hop_cycles = 400;      // make distance dominate
  config.net.fabric_message_cycles = 0;
  config.net.fabric_bytes_per_cycle = 1e9;
  Machine machine(config);
  const HierShape two_level{{4}, /*radix=*/2, /*chunk=*/0};
  std::uint64_t flat_cycles = 0, hier_cycles = 0;
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(256 * sizeof(long)));
    std::vector<long> src(256, 3);
    xbrtime_barrier();
    // Warm both forwarding sets.
    broadcast(buf, src.data(), 256, 1, /*root=*/3);
    xbrtime_barrier();
    hier_broadcast(buf, src.data(), 256, 1, /*root=*/3, two_level);
    xbrtime_barrier();

    const std::uint64_t t0 = pe.clock().cycles();
    broadcast(buf, src.data(), 256, 1, /*root=*/3);
    xbrtime_barrier();
    const std::uint64_t t1 = pe.clock().cycles();
    hier_broadcast(buf, src.data(), 256, 1, /*root=*/3, two_level);
    xbrtime_barrier();
    const std::uint64_t t2 = pe.clock().cycles();
    if (pe.rank() == 0) {
      flat_cycles = t1 - t0;
      hier_cycles = t2 - t1;
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  EXPECT_LT(hier_cycles, flat_cycles);
}

TEST(HierarchyCostTest, ThreeLevelClusterBeatsFlatOnDeepFabric) {
  // A 16-PE machine with a two-boundary cluster (pairs inside nodes of 8):
  // the three-level schedule crosses the expensive outer boundary once per
  // node instead of log n times.
  MachineConfig config = testing::test_config(16);
  config.topology_name = "cluster2x4_8x64";
  config.net.per_hop_cycles = 300;
  config.net.fabric_message_cycles = 0;
  config.net.fabric_bytes_per_cycle = 1e9;
  Machine machine(config);
  std::uint64_t flat_cycles = 0, hier_cycles = 0;
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(512 * sizeof(long)));
    std::vector<long> src(512, 5);
    const HierShape shape{{2, 8}, 2, 0};
    xbrtime_barrier();
    broadcast(buf, src.data(), 512, 1, /*root=*/1);
    xbrtime_barrier();
    hier_broadcast(buf, src.data(), 512, 1, /*root=*/1, shape);
    xbrtime_barrier();

    const std::uint64_t t0 = pe.clock().cycles();
    broadcast(buf, src.data(), 512, 1, /*root=*/1);
    xbrtime_barrier();
    const std::uint64_t t1 = pe.clock().cycles();
    hier_broadcast(buf, src.data(), 512, 1, /*root=*/1, shape);
    xbrtime_barrier();
    const std::uint64_t t2 = pe.clock().cycles();
    if (pe.rank() == 0) {
      flat_cycles = t1 - t0;
      hier_cycles = t2 - t1;
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  EXPECT_LT(hier_cycles, flat_cycles);
}

// ---------------------------------------------------------------------------
// Satellite-2 regression: kHier-dispatched nbi collectives must return a
// LIVE CollReq (deferred tail) and push chunks through the pipelined engine,
// not run the blocking schedule inline and hand back a completed handle.
// ---------------------------------------------------------------------------

TEST(HierarchyNbiTest, BroadcastNbiDefersCompletion) {
  MachineConfig config = testing::test_config(8);
  config.topology_name = "cluster4x8";
  config.coll_algo = "hier";
  Machine machine(config);
  reset_coll_pipeline_counters();
  bool done_before_wait = true;
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* dest = static_cast<long*>(xbrtime_malloc(512 * sizeof(long)));
    std::vector<long> src(512);
    for (std::size_t i = 0; i < 512; ++i) src[i] = static_cast<long>(i) + 7;
    xbrtime_barrier();
    CollReq req = xbr_broadcast_nbi(dest, src.data(), 512, 1, /*root=*/0);
    if (pe.rank() == 0) done_before_wait = req.done();
    req.wait();
    for (std::size_t i = 0; i < 512; ++i) {
      EXPECT_EQ(dest[i], static_cast<long>(i) + 7) << "pe=" << pe.rank();
    }
    xbrtime_barrier();
    xbrtime_free(dest);
    xbrtime_close();
  });
  EXPECT_FALSE(done_before_wait);
  const CollPipelineCounters after = coll_pipeline_counters();
  EXPECT_GT(after.chunks, 0u);
  EXPECT_GT(after.waits, 0u);
  EXPECT_EQ(after.collectives, 8u);  // one issue per PE
}

TEST(HierarchyNbiTest, FcollectNbiDefersCompletion) {
  MachineConfig config = testing::test_config(8);
  config.topology_name = "cluster4x8";
  config.coll_algo = "hier";
  Machine machine(config);
  reset_coll_pipeline_counters();
  bool done_before_wait = true;
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* dest = static_cast<long*>(xbrtime_malloc(8 * 64 * sizeof(long)));
    std::vector<long> src(64);
    for (std::size_t i = 0; i < 64; ++i) {
      src[i] = pe.rank() * 1000 + static_cast<long>(i);
    }
    xbrtime_barrier();
    CollReq req = xbr_fcollect_nbi(dest, src.data(), 64);
    if (pe.rank() == 0) done_before_wait = req.done();
    req.wait();
    for (int p = 0; p < 8; ++p) {
      for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(dest[static_cast<std::size_t>(p) * 64 + i],
                  p * 1000 + static_cast<long>(i))
            << "pe=" << pe.rank();
      }
    }
    xbrtime_barrier();
    xbrtime_free(dest);
    xbrtime_close();
  });
  EXPECT_FALSE(done_before_wait);
  const CollPipelineCounters after = coll_pipeline_counters();
  EXPECT_GT(after.chunks, 0u);
  EXPECT_GT(after.waits, 0u);
}

}  // namespace
}  // namespace xbgas
