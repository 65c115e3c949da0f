#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "collectives/composed.hpp"
#include "helpers.hpp"

namespace xbgas {
namespace {

using testing::run_spmd;

TEST(ComposedTest, ReduceAllLandsEverywhere) {
  for (const int n : {1, 2, 5, 8}) {
    run_spmd(n, [&](PeContext& pe) {
      auto* src = static_cast<int*>(xbrtime_malloc(4 * sizeof(int)));
      auto* dest = static_cast<int*>(xbrtime_malloc(4 * sizeof(int)));
      for (int i = 0; i < 4; ++i) src[i] = pe.rank() + i;
      xbrtime_barrier();
      reduce_all<OpSum>(dest, src, 4, 1);
      // Every PE (not just the root) holds the reduction (§4.7).
      const int ranks_sum = n * (n - 1) / 2;
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(dest[i], ranks_sum + n * i) << "pe=" << pe.rank();
      }
      xbrtime_barrier();
      xbrtime_free(dest);
      xbrtime_free(src);
    });
  }
}

TEST(ComposedTest, ReduceAllSumConvenience) {
  run_spmd(3, [&](PeContext& pe) {
    auto* src = static_cast<long*>(xbrtime_malloc(sizeof(long)));
    auto* dest = static_cast<long*>(xbrtime_malloc(sizeof(long)));
    *src = (pe.rank() + 1) * 100;
    xbrtime_barrier();
    reduce_all<OpSum>(dest, src, 1, 1);
    EXPECT_EQ(*dest, 600);
    xbrtime_barrier();
    xbrtime_free(dest);
    xbrtime_free(src);
  });
}

TEST(ComposedTest, FcollectConcatenatesInRankOrder) {
  for (const int n : {1, 4, 7}) {
    run_spmd(n, [&](PeContext& pe) {
      constexpr std::size_t kPer = 3;
      auto* dest = static_cast<int*>(
          xbrtime_malloc(kPer * static_cast<std::size_t>(n) * sizeof(int)));
      int src[kPer];
      for (std::size_t i = 0; i < kPer; ++i) {
        src[i] = pe.rank() * 10 + static_cast<int>(i);
      }
      xbrtime_barrier();
      fcollect(dest, src, kPer);
      for (int r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < kPer; ++i) {
          EXPECT_EQ(dest[static_cast<std::size_t>(r) * kPer + i],
                    r * 10 + static_cast<int>(i))
              << "pe=" << pe.rank() << " r=" << r;
        }
      }
      xbrtime_barrier();
      xbrtime_free(dest);
    });
  }
}

TEST(ComposedTest, CollectWithVariableCounts) {
  run_spmd(4, [&](PeContext& pe) {
    const int msgs[4] = {2, 0, 3, 1};
    const int disp[4] = {0, 2, 2, 5};
    const std::size_t total = 6;
    auto* dest = static_cast<int*>(xbrtime_malloc(total * sizeof(int)));
    std::vector<int> src(3);
    for (int i = 0; i < msgs[pe.rank()]; ++i) {
      src[static_cast<std::size_t>(i)] = pe.rank() * 100 + i;
    }
    xbrtime_barrier();
    collect(dest, src.data(), msgs, disp, total);
    const int expected[6] = {0, 1, 200, 201, 202, 300};
    for (std::size_t i = 0; i < total; ++i) {
      EXPECT_EQ(dest[i], expected[i]) << "pe=" << pe.rank() << " i=" << i;
    }
    xbrtime_barrier();
    xbrtime_free(dest);
  });
}

TEST(ComposedTest, AlltoallPersonalizedExchange) {
  for (const int n : {1, 2, 4, 6}) {
    run_spmd(n, [&](PeContext& pe) {
      constexpr std::size_t kSeg = 2;
      const auto un = static_cast<std::size_t>(n);
      auto* dest =
          static_cast<int*>(xbrtime_malloc(un * kSeg * sizeof(int)));
      std::vector<int> src(un * kSeg);
      for (int d = 0; d < n; ++d) {
        for (std::size_t i = 0; i < kSeg; ++i) {
          // Value encodes (sender, destination, index).
          src[static_cast<std::size_t>(d) * kSeg + i] =
              pe.rank() * 100 + d * 10 + static_cast<int>(i);
        }
      }
      std::fill(dest, dest + un * kSeg, -1);
      xbrtime_barrier();
      alltoall(dest, src.data(), kSeg);
      for (int s = 0; s < n; ++s) {
        for (std::size_t i = 0; i < kSeg; ++i) {
          EXPECT_EQ(dest[static_cast<std::size_t>(s) * kSeg + i],
                    s * 100 + pe.rank() * 10 + static_cast<int>(i))
              << "pe=" << pe.rank() << " from=" << s;
        }
      }
      xbrtime_barrier();
      xbrtime_free(dest);
    });
  }
}

TEST(ComposedTest, AlltoallZeroElements) {
  run_spmd(3, [&](PeContext&) {
    auto* dest = static_cast<int*>(xbrtime_malloc(3 * sizeof(int)));
    std::vector<int> src(3, 7);
    std::fill(dest, dest + 3, -2);
    xbrtime_barrier();
    alltoall(dest, src.data(), 0);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(dest[i], -2);
    xbrtime_barrier();
    xbrtime_free(dest);
  });
}

TEST(ComposedTest, FcollectRejectsIntOverflowTotals) {
  // Regression: the displacement loop used to compute
  // `r * static_cast<int>(nelems_per_pe)` in int arithmetic, which silently
  // overflowed for per-PE counts near INT_MAX. The total is now computed in
  // std::size_t and validated up front, before any allocation — so the huge
  // request fails loudly (SpmdRegionError wrapping the contract violation)
  // instead of corrupting displacements.
  const std::size_t per = static_cast<std::size_t>(INT_MAX) / 2 + 1;
  EXPECT_THROW(run_spmd(2,
                        [&](PeContext&) {
                          int sink = 0;
                          int src[1] = {7};
                          fcollect(&sink, src, per);
                        }),
               SpmdRegionError);
  // And a 32-bit-wrapping per-PE count is rejected on one PE too.
  const std::size_t wrap = static_cast<std::size_t>(INT_MAX) + 1;
  EXPECT_THROW(run_spmd(1,
                        [&](PeContext&) {
                          int sink = 0;
                          int src[1] = {7};
                          fcollect(&sink, src, wrap);
                        }),
               SpmdRegionError);
}

TEST(ComposedTest, ChainedComposition) {
  // fcollect then reduce_all over the collected vector: stresses staging
  // reuse across consecutive collectives.
  run_spmd(4, [&](PeContext& pe) {
    auto* collected = static_cast<int*>(xbrtime_malloc(4 * sizeof(int)));
    auto* reduced = static_cast<int*>(xbrtime_malloc(4 * sizeof(int)));
    int mine = pe.rank() + 1;
    xbrtime_barrier();
    fcollect(collected, &mine, 1);
    reduce_all<OpProd>(reduced, collected, 4, 1);
    // Every PE collected {1,2,3,4}; the product reduction of identical
    // vectors over 4 PEs is elementwise ^4.
    for (int i = 0; i < 4; ++i) {
      int expected = 1;
      for (int k = 0; k < 4; ++k) expected *= (i + 1);
      EXPECT_EQ(reduced[i], expected);
    }
    xbrtime_barrier();
    xbrtime_free(reduced);
    xbrtime_free(collected);
  });
}

}  // namespace
}  // namespace xbgas
