// Golden modeled cost of the collective dispatcher.
//
// The conformance suite checks what a collective computes; this test pins
// what it costs. Every collective kind runs through its public blocking
// entry (dispatch_broadcast, dispatch_reduce, reduce_all, fcollect) and its
// nbi entry (xbr_*_nbi + wait) for each forced family — tree at radix 2 and
// 4, ring, and hier — at 1, 3, 8 and 12 PEs, over payloads of 0, 1, 300 and
// 2000 elements with strides 1 and 3 (allgather has no stride). Each PE
// records its clock when the call returns, its clock after wait() for nbi
// calls, and a checksum of its result; the test pins a digest of those
// trails and a digest of the modeled counters. Hier runs on cluster4x32
// where 4 divides the PE count and on the flat fabric otherwise (forced
// hier then degrades to the tree). Both 1 and 4 workers must reproduce the
// same digests: modeled state does not depend on host scheduling.
//
// DispatchGoldenDirectTest pins, the same way, the schedules the dispatcher
// never reaches: scatter and gather with uneven per-PE counts (zero-count
// PEs included) at every root, collect, linear_broadcast at stride 3 and
// linear_reduce at stride 2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "collectives/baseline.hpp"
#include "collectives/composed.hpp"
#include "collectives/nbi.hpp"
#include "collectives/policy.hpp"
#include "helpers.hpp"
#include "support/modeled_counters.hpp"

namespace xbgas {
namespace {

struct Family {
  const char* name;
  const char* algo;  ///< forced coll_algo
  int radix;         ///< forced coll_radix (0: default)
};

constexpr Family kFamilies[] = {
    {"tree_r2", "tree", 2},
    {"tree_r4", "tree", 4},
    {"ring", "ring", 0},
    {"hier", "hier", 0},
};
constexpr int kPeCounts[] = {1, 3, 8, 12};
constexpr std::size_t kSizes[] = {0, 1, 300, 2000};
constexpr int kStrides[] = {1, 3};
constexpr CollKind kKinds[] = {CollKind::kBroadcast, CollKind::kReduce,
                               CollKind::kAllreduce, CollKind::kAllgather};
constexpr std::size_t kSrcElems = 2000 * 3;
constexpr std::size_t kDestElems = 2000 * 12;

struct Golden {
  const char* family;
  int n;
  std::uint64_t trail;     ///< digest of every PE's (clock, checksum) trail
  std::uint64_t counters;  ///< digest of the modeled counters' JSON
};

// A mismatch means the modeled cost of some collective moved. The failure
// prints the measured entry; replace a constant only together with the
// reason the cost had to move.
constexpr Golden kGolden[] = {
    {"tree_r2", 1, 0x77050bf9422f5e49ull, 0x82868d3043bfc277ull},
    {"tree_r2", 3, 0x900bed461aa3dcfeull, 0x82cc80a51683914full},
    {"tree_r2", 8, 0xb243916e16fceddull, 0xb147894486ada117ull},
    {"tree_r2", 12, 0xbb51a139d81a6999ull, 0xd22ca76877ce3323ull},
    {"tree_r4", 1, 0x8549cee6bd4e87a6ull, 0x347fd422c07bf913ull},
    {"tree_r4", 3, 0x3bf31c9811babb32ull, 0xbea67ca35cadc733ull},
    {"tree_r4", 8, 0xe6c1143da25fff61ull, 0x72ca0699fe3e2270ull},
    {"tree_r4", 12, 0x12db738c0a928eedull, 0xeab7e3ea1d35e5c5ull},
    {"ring", 1, 0x77050bf9422f5e49ull, 0x82868d3043bfc277ull},
    {"ring", 3, 0xf6589b2b60a5d23bull, 0x8da20868b2f0cb76ull},
    {"ring", 8, 0x9243250a8b27ca4full, 0x47bda1db58f98e4eull},
    {"ring", 12, 0xdebd82e60628f650ull, 0x81fa9e7bb4088fb0ull},
    {"hier", 1, 0x77050bf9422f5e49ull, 0x82868d3043bfc277ull},
    {"hier", 3, 0x900bed461aa3dcfeull, 0x82cc80a51683914full},
    {"hier", 8, 0x60faf3d4fe48df91ull, 0x185ab0934164a573ull},
    {"hier", 12, 0xe7543e15e98d767dull, 0xe3b97c62c3b8326bull},
};

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const std::string& s) {
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

CollReq issue(CollKind kind, bool nbi, long* dest, const long* src,
              std::size_t size, int stride, int root) {
  switch (kind) {
    case CollKind::kBroadcast:
      if (nbi) return xbr_broadcast_nbi(dest, src, size, stride, root);
      dispatch_broadcast(dest, src, size, stride, root);
      break;
    case CollKind::kReduce:
      if (nbi) return xbr_reduce_nbi<OpSum>(dest, src, size, stride, root);
      dispatch_reduce<OpSum>(dest, src, size, stride, root);
      break;
    case CollKind::kAllreduce:
      if (nbi) return xbr_reduce_all_nbi<OpSum>(dest, src, size, stride);
      reduce_all<OpSum>(dest, src, size, stride);
      break;
    case CollKind::kAllgather:
      if (nbi) return xbr_fcollect_nbi(dest, src, size);
      fcollect(dest, src, size);
      break;
  }
  return CollReq{};
}

/// Checksum of the part of dest the collective defines on this PE.
std::uint64_t result_checksum(CollKind kind, const long* dest,
                              std::size_t size, int stride, int root,
                              int me, int n) {
  std::size_t count = size;
  std::size_t step = static_cast<std::size_t>(stride);
  if (kind == CollKind::kReduce && me != root) count = 0;
  if (kind == CollKind::kAllgather) {
    count = size * static_cast<std::size_t>(n);
    step = 1;
  }
  std::uint64_t sum = 0;
  for (std::size_t j = 0; j < count; ++j) {
    sum = sum * 31 + static_cast<std::uint64_t>(dest[j * step]);
  }
  return sum;
}

void run_cases(PeContext& pe, std::vector<std::uint64_t>& trail) {
  const int n = pe.n_pes();
  const int me = pe.rank();
  auto* dest = static_cast<long*>(xbrtime_malloc(kDestElems * sizeof(long)));
  auto* src = static_cast<long*>(xbrtime_malloc(kSrcElems * sizeof(long)));
  for (std::size_t i = 0; i < kSrcElems; ++i) {
    src[i] = static_cast<long>(me) * 7919 + static_cast<long>(i) + 1;
  }
  for (const bool nbi : {false, true}) {
    for (const CollKind kind : kKinds) {
      for (const std::size_t size : kSizes) {
        for (const int stride : kStrides) {
          if (kind == CollKind::kAllgather && stride != 1) continue;
          const int root = static_cast<int>(
              (size + static_cast<std::size_t>(stride)) %
              static_cast<std::size_t>(n));
          std::fill(dest, dest + kDestElems, -1L);
          xbrtime_barrier();
          CollReq req = issue(kind, nbi, dest, src, size, stride, root);
          trail.push_back(pe.clock().cycles());
          if (nbi) {
            req.wait();
            trail.push_back(pe.clock().cycles());
          }
          trail.push_back(
              result_checksum(kind, dest, size, stride, root, me, n));
        }
      }
    }
  }
  xbrtime_barrier();
  xbrtime_free(src);
  xbrtime_free(dest);
}

struct Outcome {
  std::uint64_t trail = 0;
  std::uint64_t counters = 0;
};

Outcome run_family(const Family& family, int n, int workers) {
  MachineConfig config = testing::test_config(n);
  config.layout.shared_bytes = std::size_t{2} << 20;
  config.topology_name =
      std::string(family.algo) == "hier" && n % 4 == 0 ? "cluster4x32"
                                                       : "flat";
  config.coll_algo = family.algo;
  config.coll_radix = family.radix;
  config.sched.workers = workers;
  Machine machine(config);
  std::vector<std::vector<std::uint64_t>> trails(static_cast<std::size_t>(n));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    run_cases(pe, trails[static_cast<std::size_t>(pe.rank())]);
    xbrtime_close();
  });
  Digest trail;
  for (const auto& t : trails) {
    for (const std::uint64_t v : t) trail.add(v);
  }
  Digest counters;
  counters.add(testing::modeled_counters(machine).json());
  return Outcome{trail.value(), counters.value()};
}

class DispatchGoldenTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DispatchGoldenTest, ModeledCostMatchesGolden) {
  const Family& family = kFamilies[std::get<0>(GetParam())];
  const int n = std::get<1>(GetParam());
  const Golden* golden = nullptr;
  for (const Golden& g : kGolden) {
    if (std::string(g.family) == family.name && g.n == n) golden = &g;
  }
  for (const int workers : {1, 4}) {
    const Outcome got = run_family(family, n, workers);
    const bool match = golden != nullptr && got.trail == golden->trail &&
                       got.counters == golden->counters;
    EXPECT_TRUE(match) << "workers=" << workers << "; measured entry:\n"
                       << "    {\"" << family.name << "\", " << n << ", 0x"
                       << std::hex << got.trail << "ull, 0x" << got.counters
                       << "ull},";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, DispatchGoldenTest,
    ::testing::Combine(::testing::Range(0, 4), ::testing::ValuesIn(kPeCounts)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& p) {
      return std::string(kFamilies[std::get<0>(p.param)].name) + "_n" +
             std::to_string(std::get<1>(p.param));
    });

// ---------------------------------------------------------------------------
// Schedules called directly: variable-count scatter/gather/collect and the
// linear baselines
// ---------------------------------------------------------------------------

struct DirectGolden {
  int n;
  std::uint64_t trail;
  std::uint64_t counters;
};

// Same contract as kGolden: replace a constant only with the reason.
constexpr DirectGolden kDirectGolden[] = {
    {1, 0xe529d8a57f36b52full, 0x70dc9c0675d8fe82ull},
    {3, 0xb68d4a7a687165d2ull, 0x7a4ce4dcfe5bd956ull},
    {8, 0xe428331d96e99abeull, 0xccbabcd7f927efc0ull},
    {12, 0x9bdd28a52fca124eull, 0x3ec21ce424c77d2full},
};

constexpr int kCountScales[] = {1, 97};
constexpr std::size_t kDirectSizes[] = {0, 1, 300};

/// Uneven per-PE counts with zero-count PEs (rank 1 mod 5 sends nothing),
/// laid out in descending-rank order so pe_disp is not the prefix sum.
void uneven_layout(int n, int scale, std::vector<int>& msgs,
                   std::vector<int>& disp, std::size_t& total) {
  msgs.assign(static_cast<std::size_t>(n), 0);
  disp.assign(static_cast<std::size_t>(n), 0);
  total = 0;
  for (int r = n - 1; r >= 0; --r) {
    msgs[static_cast<std::size_t>(r)] = ((7 * r + 3) % 5) * scale;
    disp[static_cast<std::size_t>(r)] = static_cast<int>(total);
    total += static_cast<std::size_t>(msgs[static_cast<std::size_t>(r)]);
  }
}

std::uint64_t strided_checksum(const long* buf, std::size_t count,
                               std::size_t step) {
  std::uint64_t sum = 0;
  for (std::size_t j = 0; j < count; ++j) {
    sum = sum * 31 + static_cast<std::uint64_t>(buf[j * step]);
  }
  return sum;
}

void run_direct_cases(PeContext& pe, std::vector<std::uint64_t>& trail) {
  const int n = pe.n_pes();
  const int me = pe.rank();
  auto* dest = static_cast<long*>(xbrtime_malloc(kDestElems * sizeof(long)));
  auto* src = static_cast<long*>(xbrtime_malloc(kSrcElems * sizeof(long)));
  for (std::size_t i = 0; i < kSrcElems; ++i) {
    src[i] = static_cast<long>(me) * 7919 + static_cast<long>(i) + 1;
  }
  const auto record = [&](std::uint64_t checksum) {
    trail.push_back(pe.clock().cycles());
    trail.push_back(checksum);
  };
  const auto fresh = [&] {
    std::fill(dest, dest + kDestElems, -1L);
    xbrtime_barrier();
  };

  std::vector<int> msgs, disp;
  std::size_t total = 0;
  for (const int scale : kCountScales) {
    uneven_layout(n, scale, msgs, disp, total);
    const auto mine = static_cast<std::size_t>(msgs[static_cast<std::size_t>(me)]);
    for (int root = 0; root < n; ++root) {
      fresh();
      scatter(dest, src, msgs.data(), disp.data(), total, root);
      record(strided_checksum(dest, mine, 1));
      fresh();
      gather(dest, src, msgs.data(), disp.data(), total, root);
      record(me == root ? strided_checksum(dest, total, 1) : 0);
    }
    fresh();
    collect(dest, src, msgs.data(), disp.data(), total);
    record(strided_checksum(dest, total, 1));
  }
  for (const std::size_t size : kDirectSizes) {
    for (int root = 0; root < n; ++root) {
      fresh();
      linear_broadcast(dest, src, size, /*stride=*/3, root);
      record(strided_checksum(dest, size, 3));
      fresh();
      linear_reduce<OpSum>(dest, src, size, /*stride=*/2, root);
      record(me == root ? strided_checksum(dest, size, 2) : 0);
    }
  }
  xbrtime_barrier();
  xbrtime_free(src);
  xbrtime_free(dest);
}

Outcome run_direct(int n, int workers) {
  MachineConfig config = testing::test_config(n);
  config.layout.shared_bytes = std::size_t{2} << 20;
  config.sched.workers = workers;
  Machine machine(config);
  std::vector<std::vector<std::uint64_t>> trails(static_cast<std::size_t>(n));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    run_direct_cases(pe, trails[static_cast<std::size_t>(pe.rank())]);
    xbrtime_close();
  });
  Digest trail;
  for (const auto& t : trails) {
    for (const std::uint64_t v : t) trail.add(v);
  }
  Digest counters;
  counters.add(testing::modeled_counters(machine).json());
  return Outcome{trail.value(), counters.value()};
}

class DispatchGoldenDirectTest : public ::testing::TestWithParam<int> {};

TEST_P(DispatchGoldenDirectTest, ModeledCostMatchesGolden) {
  const int n = GetParam();
  const DirectGolden* golden = nullptr;
  for (const DirectGolden& g : kDirectGolden) {
    if (g.n == n) golden = &g;
  }
  for (const int workers : {1, 4}) {
    const Outcome got = run_direct(n, workers);
    const bool match = golden != nullptr && got.trail == golden->trail &&
                       got.counters == golden->counters;
    EXPECT_TRUE(match) << "workers=" << workers << "; measured entry:\n"
                       << "    {" << n << ", 0x" << std::hex << got.trail
                       << "ull, 0x" << got.counters << "ull},";
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, DispatchGoldenDirectTest,
                         ::testing::ValuesIn(kPeCounts),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return "n" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace xbgas
