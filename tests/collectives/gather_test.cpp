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

/// Property: the root's dest holds every PE's contribution at pe_disp
/// order; non-root dests untouched.
void check_gather(int n_pes, int root, const std::vector<int>& msgs) {
  ASSERT_EQ(msgs.size(), static_cast<std::size_t>(n_pes));
  std::vector<int> disp(msgs.size());
  std::exclusive_scan(msgs.begin(), msgs.end(), disp.begin(), 0);
  const auto total = static_cast<std::size_t>(
      std::accumulate(msgs.begin(), msgs.end(), 0));

  run_spmd(n_pes, [&](PeContext& pe) {
    const int me = pe.rank();
    const auto mine =
        static_cast<std::size_t>(msgs[static_cast<std::size_t>(me)]);
    // Contribution value encodes (pe, index).
    std::vector<long> src(std::max<std::size_t>(mine, 1));
    for (std::size_t i = 0; i < mine; ++i) {
      src[i] = me * 1000 + static_cast<long>(i);
    }
    std::vector<long> dest(total + 1, -44);

    xbrtime_barrier();
    gather(dest.data(), src.data(), msgs.data(), disp.data(), total, root);

    if (me == root) {
      for (int r = 0; r < n_pes; ++r) {
        for (int i = 0; i < msgs[static_cast<std::size_t>(r)]; ++i) {
          EXPECT_EQ(dest[static_cast<std::size_t>(
                        disp[static_cast<std::size_t>(r)] + i)],
                    r * 1000 + i)
              << "n=" << n_pes << " root=" << root << " from=" << r;
        }
      }
      EXPECT_EQ(dest[total], -44);
    } else {
      for (const long v : dest) EXPECT_EQ(v, -44);
    }
    xbrtime_barrier();
  });
}

std::vector<int> uniform(int n, int c) {
  return std::vector<int>(static_cast<std::size_t>(n), c);
}

TEST(GatherTest, UniformCountsAllPeCountsAndRoots) {
  for (const int n : kPeCounts) {
    for (int root = 0; root < n; ++root) {
      check_gather(n, root, uniform(n, 3));
    }
  }
}

TEST(GatherTest, VariableCounts) {
  check_gather(4, 0, {4, 1, 7, 2});
  check_gather(5, 2, {1, 6, 3, 8, 2});
  check_gather(8, 5, {2, 0, 4, 1, 9, 0, 3, 6});
}

TEST(GatherTest, ZeroCountPes) {
  check_gather(4, 3, {5, 0, 0, 1});
}

TEST(GatherTest, SinglePe) { check_gather(1, 0, {6}); }

TEST(GatherTest, PaperWorkedExample) {
  // 7 PEs, root 4 (Table 2's mapping) with distinct counts.
  check_gather(7, 4, {3, 1, 4, 1, 5, 2, 6});
}

TEST(GatherTest, ScatterThenGatherIsIdentity) {
  // Round-trip property: scatter from root then gather back must
  // reconstruct the original array.
  for (const int n : {2, 5, 8}) {
    run_spmd(n, [&](PeContext& pe) {
      std::vector<int> msgs(static_cast<std::size_t>(n));
      std::vector<int> disp(static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        msgs[static_cast<std::size_t>(r)] = (r * 3) % 5 + 1;
      }
      std::exclusive_scan(msgs.begin(), msgs.end(), disp.begin(), 0);
      const auto total = static_cast<std::size_t>(
          std::accumulate(msgs.begin(), msgs.end(), 0));

      std::vector<long> original(total);
      std::iota(original.begin(), original.end(), 31337);
      const auto mine =
          static_cast<std::size_t>(msgs[static_cast<std::size_t>(pe.rank())]);
      std::vector<long> slice(std::max<std::size_t>(mine, 1));
      std::vector<long> rebuilt(total, 0);

      xbrtime_barrier();
      const int root = n - 1;
      scatter(slice.data(), original.data(), msgs.data(), disp.data(), total,
              root);
      gather(rebuilt.data(), slice.data(), msgs.data(), disp.data(), total,
             root);
      if (pe.rank() == root) {
        EXPECT_EQ(rebuilt, original);
      }
      xbrtime_barrier();
    });
  }
}

TEST(GatherTest, SumMismatchThrows) {
  Machine machine(testing::test_config(2));
  EXPECT_THROW(machine.run([&](PeContext&) {
                 xbrtime_init();
                 const int msgs[2] = {1, 1};
                 const int disp[2] = {0, 1};
                 int src[1] = {};
                 int dest[2] = {};
                 gather(dest, src, msgs, disp, /*nelems=*/3, 0);
               }),
               Error);
}

TEST(GatherTest, TypedCApiEntryPoint) {
  run_spmd(2, [&](PeContext& pe) {
    const int msgs[2] = {1, 1};
    const int disp[2] = {0, 1};
    const std::uint64_t src = 70 + static_cast<std::uint64_t>(pe.rank());
    std::uint64_t dest[2] = {0, 0};
    xbrtime_barrier();
    xbrtime_uint64_gather(dest, &src, msgs, disp, 2, 0);
    if (pe.rank() == 0) {
      EXPECT_EQ(dest[0], 70u);
      EXPECT_EQ(dest[1], 71u);
    }
    xbrtime_barrier();
  });
}

}  // namespace
}  // namespace xbgas
