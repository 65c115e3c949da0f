#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "collectives/api_c.hpp"
#include "collectives/collectives.hpp"
#include "helpers.hpp"

namespace xbgas {
namespace {

using testing::kPeCounts;
using testing::run_spmd;

/// Property: each PE receives exactly its pe_msgs[rank] elements, taken
/// from src at pe_disp[rank] on the root, regardless of root choice.
void check_scatter(int n_pes, int root, const std::vector<int>& msgs) {
  ASSERT_EQ(msgs.size(), static_cast<std::size_t>(n_pes));
  std::vector<int> disp(msgs.size());
  std::exclusive_scan(msgs.begin(), msgs.end(), disp.begin(), 0);
  const auto total = static_cast<std::size_t>(
      std::accumulate(msgs.begin(), msgs.end(), 0));

  run_spmd(n_pes, [&](PeContext& pe) {
    const int me = pe.rank();
    // Root's source: value encodes global element index.
    std::vector<long> src(total);
    for (std::size_t i = 0; i < total; ++i) {
      src[i] = 5000 + static_cast<long>(i);
    }
    const auto mine = static_cast<std::size_t>(msgs[static_cast<std::size_t>(me)]);
    std::vector<long> dest(mine + 2, -99);  // +2 sentinel tail

    xbrtime_barrier();
    scatter(dest.data(), src.data(), msgs.data(), disp.data(), total, root);

    for (std::size_t i = 0; i < mine; ++i) {
      EXPECT_EQ(dest[i],
                5000 + disp[static_cast<std::size_t>(me)] + static_cast<long>(i))
          << "n=" << n_pes << " root=" << root << " pe=" << me << " i=" << i;
    }
    EXPECT_EQ(dest[mine], -99);
    EXPECT_EQ(dest[mine + 1], -99);
    xbrtime_barrier();
  });
}

std::vector<int> uniform(int n, int c) {
  return std::vector<int>(static_cast<std::size_t>(n), c);
}

TEST(ScatterTest, UniformCountsAllPeCountsAndRoots) {
  for (const int n : kPeCounts) {
    for (int root = 0; root < n; ++root) {
      check_scatter(n, root, uniform(n, 4));
    }
  }
}

TEST(ScatterTest, VariableCounts) {
  // The paper's headline scatter feature: a distinct number of elements per
  // PE (§4.5).
  check_scatter(4, 0, {1, 5, 2, 8});
  check_scatter(5, 3, {7, 1, 4, 2, 6});
  check_scatter(8, 6, {3, 0, 5, 1, 0, 9, 2, 4});
}

TEST(ScatterTest, ZeroCountPes) {
  check_scatter(4, 1, {0, 6, 0, 2});
  check_scatter(3, 2, {0, 0, 5});
}

TEST(ScatterTest, SinglePe) { check_scatter(1, 0, {9}); }

TEST(ScatterTest, NonZeroRootNonContiguousSubtrees) {
  // The paper's §4.5 worked example: 7 PEs, root 4 — virtual-rank
  // reordering must keep subtree data contiguous.
  check_scatter(7, 4, {2, 3, 1, 4, 2, 5, 3});
}

TEST(ScatterTest, SumMismatchThrows) {
  Machine machine(testing::test_config(2));
  EXPECT_THROW(machine.run([&](PeContext&) {
                 xbrtime_init();
                 const int msgs[2] = {2, 2};
                 const int disp[2] = {0, 2};
                 int src[4] = {};
                 int dest[2] = {};
                 scatter(dest, src, msgs, disp, /*nelems=*/5, 0);
               }),
               Error);
}

TEST(ScatterTest, NegativeCountThrows) {
  Machine machine(testing::test_config(2));
  EXPECT_THROW(machine.run([&](PeContext&) {
                 xbrtime_init();
                 const int msgs[2] = {-1, 3};
                 const int disp[2] = {0, 0};
                 int src[2] = {};
                 int dest[4] = {};
                 scatter(dest, src, msgs, disp, 2, 0);
               }),
               Error);
}

TEST(ScatterTest, TypedCApiEntryPoint) {
  run_spmd(3, [&](PeContext& pe) {
    const int msgs[3] = {2, 2, 2};
    const int disp[3] = {0, 2, 4};
    short src[6] = {10, 11, 20, 21, 30, 31};
    short dest[2] = {-1, -1};
    xbrtime_barrier();
    xbrtime_short_scatter(dest, src, msgs, disp, 6, 0);
    EXPECT_EQ(dest[0], (pe.rank() + 1) * 10);
    EXPECT_EQ(dest[1], (pe.rank() + 1) * 10 + 1);
    xbrtime_barrier();
  });
}

}  // namespace
}  // namespace xbgas
