// Partition tolerance end to end (the PR's acceptance scenario):
//
//  * Unreachable-peer escalation — retries exhausted across a scripted-down
//    link become a typed PeUnreachableError naming the peer and the link,
//    and feed the same suspect -> xbr_agree -> xbr_team_shrink machinery as
//    a death: the quorum evicts the unreachable peer and the survivors
//    finish on an all-reachable roster.
//  * Split-brain safety — under a scripted 2-way partition at 64 PEs, only
//    the majority component may decide and shrink; every minority rank
//    unwinds with PartitionedError carrying the majority roster, and the
//    whole run replays bit-identically.
//  * Fail-fast conformance — with a zero retry budget against a dead link,
//    every blocking operation (put, get, amo, write-combined flush,
//    collective, barrier) terminates with a typed error under XbrSan full;
//    nothing hangs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "collectives/checkpoint.hpp"
#include "collectives/collectives.hpp"
#include "collectives/policy.hpp"
#include "collectives/shrink.hpp"
#include "support/modeled_counters.hpp"
#include "trace/collect.hpp"
#include "xbrtime/rma.hpp"
#include "xbrtime/runtime.hpp"
#include "xbrtime/wc.hpp"

namespace xbgas {
namespace {

MachineConfig config(int n_pes, const FaultConfig& fault,
                     SanMode san = SanMode::kOff) {
  MachineConfig c;
  c.n_pes = n_pes;
  c.layout =
      MemoryLayout{.private_bytes = 64 * 1024, .shared_bytes = 512 * 1024};
  c.fault = fault;
  c.san.mode = san;
  return c;
}

FaultConfig down_link(int a, int b, std::uint64_t at = 1,
                      std::uint64_t heal_at = 0) {
  FaultConfig fc;
  LinkSpec l;
  l.a = a;
  l.b = b;
  l.mode = LinkFaultMode::kDown;
  l.at = at;
  l.heal_at = heal_at;
  fc.links.push_back(l);
  // Watchdogs so a regression hangs as a diagnosed failure, not a timeout.
  fc.barrier_timeout_ms = 30000;
  fc.agree_timeout_ms = 30000;
  return fc;
}

std::uint64_t pattern(int rank, std::size_t i) {
  return static_cast<std::uint64_t>(rank) * 1000003 + i;
}

// ---------------------------------------------------------------------------
// Unreachable-peer escalation: one dead link, typed error, quorum eviction.
// ---------------------------------------------------------------------------

struct EscalationDigest {
  int attempts = 0;
  int peer = -1;
  int link_a = -1;
  int link_b = -1;
  std::string site;
  std::vector<std::vector<int>> rosters;     // per world rank (survivors)
  std::vector<int> partitioned;              // flag per world rank
  std::vector<std::vector<int>> majorities;  // per partitioned world rank
  std::vector<int> failed_ranks;
  int n_alive = 0;
  std::string counters;

  bool operator==(const EscalationDigest& o) const {
    return attempts == o.attempts && peer == o.peer && link_a == o.link_a &&
           link_b == o.link_b && site == o.site && rosters == o.rosters &&
           partitioned == o.partitioned && majorities == o.majorities &&
           failed_ranks == o.failed_ranks && n_alive == o.n_alive &&
           counters == o.counters;
  }
};

/// 4 PEs, link (1, 3) scripted down from the start. Rank 1's put to 3
/// exhausts its retries, escalates, and the next agreement evicts rank 3
/// (the larger endpoint); ranks {0, 1, 2} finish on a verified team while
/// rank 3 unwinds with PartitionedError.
EscalationDigest escalation_run() {
  constexpr int kPes = 4;
  constexpr std::size_t kElems = 16;
  Machine machine(config(kPes, down_link(1, 3)));

  EscalationDigest d;
  d.rosters.resize(kPes);
  d.partitioned.assign(kPes, 0);
  d.majorities.resize(kPes);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* remote = static_cast<std::uint64_t*>(
        xbrtime_malloc(kElems * sizeof(std::uint64_t)));
    std::uint64_t local[kElems] = {};
    const auto me = static_cast<std::size_t>(pe.rank());
    try {
      if (pe.rank() == 1) {
        xbr_put(remote, local, kElems, 1, 3);
        ADD_FAILURE() << "the put crossed a down link and must not land";
      }
      xbrtime_barrier();
      ADD_FAILURE() << "the barrier must be poisoned by the escalation";
    } catch (const PeUnreachableError& e) {
      d.attempts = e.attempts();
      d.peer = e.peer();
      d.link_a = e.link_a();
      d.link_b = e.link_b();
      d.site = e.site();
    } catch (const PeFailedError&) {
      // Poisoned barrier: this rank observed the suspect second-hand.
    }
    try {
      auto team = xbr_team_shrink();
      d.rosters[me] = team->members();
    } catch (const PartitionedError& e) {
      d.partitioned[me] = 1;
      d.majorities[me] = e.majority_ranks();
      throw;  // unwind: acting on local state would split the brain
    }
  });

  d.failed_ranks = machine.failed_ranks();
  d.n_alive = machine.n_alive();
  d.counters = testing::modeled_counters(machine).json();
  return d;
}

TEST(UnreachableEscalationTest, TypedErrorFeedsQuorumEviction) {
  const EscalationDigest d = escalation_run();

  // The typed error names the peer, the link, and the exhausted budget.
  EXPECT_EQ(d.attempts, FaultConfig{}.max_rma_retries + 1);
  EXPECT_EQ(d.peer, 3);
  EXPECT_EQ(d.link_a, 1);
  EXPECT_EQ(d.link_b, 3);
  EXPECT_EQ(d.site, "link_down");

  // The quorum evicted the unreachable peer like a dead rank.
  const std::vector<int> survivors{0, 1, 2};
  for (const int wr : survivors) {
    EXPECT_EQ(d.rosters[static_cast<std::size_t>(wr)], survivors)
        << "world rank " << wr;
    EXPECT_EQ(d.partitioned[static_cast<std::size_t>(wr)], 0);
  }
  EXPECT_EQ(d.partitioned[3], 1);
  EXPECT_EQ(d.majorities[3], survivors);
  EXPECT_EQ(d.failed_ranks, std::vector<int>{3});
  EXPECT_EQ(d.n_alive, 3);
}

TEST(UnreachableEscalationTest, EscalationIsDeterministic) {
  const EscalationDigest first = escalation_run();
  const EscalationDigest second = escalation_run();
  EXPECT_TRUE(first == second)
      << "same scripted link fault, different books;\nfirst:\n"
      << first.counters << "\nsecond:\n" << second.counters;
}

TEST(UnreachableEscalationTest, ScriptedHealTurnsEscalationIntoRetries) {
  // The link heals at a modeled cycle the exponential backoff walks past:
  // the bounded retry loop rides over the outage and the transfer lands —
  // no escalation, no eviction, one healed-link transition on the books.
  FaultConfig fc = down_link(0, 1, /*at=*/1, /*heal_at=*/50'000);
  fc.max_rma_retries = 12;
  Machine machine(config(2, fc));
  bool ok = false;
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* remote = static_cast<std::uint64_t*>(xbrtime_malloc(64));
    const std::uint64_t v = 0xFEEDull;
    if (pe.rank() == 0) xbr_put(remote, &v, 1, 1, 1);
    xbrtime_barrier();
    if (pe.rank() == 1) ok = *remote == 0xFEEDull;
    xbrtime_barrier();
    xbrtime_free(remote);
    xbrtime_close();
  });
  EXPECT_TRUE(ok) << "the transfer must land once the link heals";

  const CounterRegistry counters = collect_counters(machine);
  EXPECT_GT(counters.get("rma.retries").value(), 0u);
  EXPECT_GT(counters.get("fault.injected.link_down").value(), 0u);
  EXPECT_EQ(counters.get("net.link.healed").value(), 1u);
  EXPECT_EQ(counters.get("fault.injected.unreachable").value(), 0u);
  EXPECT_EQ(machine.n_alive(), 2);
}

// ---------------------------------------------------------------------------
// Split-brain safety at 64 PEs: majority decides, minority unwinds typed.
// ---------------------------------------------------------------------------

struct QuorumDigest {
  std::vector<std::vector<int>> rosters;     // per world rank
  std::vector<std::uint64_t> reduced;        // per world rank
  std::vector<int> verified;                 // per world rank
  std::vector<int> unreachable_seen;         // flag per world rank
  std::vector<int> partitioned;              // flag per world rank
  std::vector<std::vector<int>> majorities;  // per partitioned world rank
  std::vector<int> failed_ranks;
  int n_alive = 0;
  std::string counters;

  bool operator==(const QuorumDigest& o) const {
    return rosters == o.rosters && reduced == o.reduced &&
           verified == o.verified && unreachable_seen == o.unreachable_seen &&
           partitioned == o.partitioned && majorities == o.majorities &&
           failed_ranks == o.failed_ranks && n_alive == o.n_alive &&
           counters == o.counters;
  }
};

/// 64 PEs on a ring exchange; ranks [48, 63] are split off from the start.
/// The crossing transfers (47 -> 48 and 63 -> 0) escalate, the poisoned
/// world barrier spreads the verdict, and one agreement wave settles both
/// sides: the 48-strong majority shrinks and finishes a golden allreduce,
/// the 16-rank minority unwinds with PartitionedError.
QuorumDigest quorum_run() {
  constexpr int kPes = 64;
  constexpr int kMinorityLo = 48;
  constexpr std::size_t kElems = 64;
  FaultConfig fc;
  PartitionSpec p;
  p.lo = kMinorityLo;
  p.hi = kPes - 1;
  p.at = 1;
  fc.partitions.push_back(p);
  fc.barrier_timeout_ms = 60000;
  fc.agree_timeout_ms = 60000;
  Machine machine(config(kPes, fc));

  QuorumDigest d;
  d.rosters.resize(kPes);
  d.reduced.assign(kPes, 0);
  d.verified.assign(kPes, 0);
  d.unreachable_seen.assign(kPes, 0);
  d.partitioned.assign(kPes, 0);
  d.majorities.resize(kPes);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* data = static_cast<std::uint64_t*>(
        xbrtime_malloc(kElems * sizeof(std::uint64_t)));
    auto* scratch = static_cast<std::uint64_t*>(
        xbrtime_malloc(kElems * sizeof(std::uint64_t)));
    for (std::size_t i = 0; i < kElems; ++i) {
      data[i] = pattern(pe.rank(), i);
      scratch[i] = 0;
    }
    xbr_checkpoint();

    const auto me = static_cast<std::size_t>(pe.rank());
    const int right = (pe.rank() + 1) % kPes;
    try {
      // Ring exchange: only 47 -> 48 and 63 -> 0 cross the partition.
      xbr_put(scratch, data, kElems, 1, right);
      xbrtime_barrier();
      ADD_FAILURE() << "rank " << pe.rank()
                    << " passed a barrier two ranks can never reach";
    } catch (const PeUnreachableError&) {
      d.unreachable_seen[me] = 1;
    } catch (const PeFailedError&) {
    }

    try {
      auto team = xbr_team_shrink();
      d.rosters[me] = team->members();

      // The checkpoint must restore cleanly on the survivor side.
      std::memset(data, 0xCD, kElems * sizeof(std::uint64_t));
      xbr_restore(*team);
      bool ok = true;
      for (std::size_t i = 0; i < kElems; ++i) {
        ok &= data[i] == pattern(pe.rank(), i);
      }

      // Quorum-side progress: a golden allreduce over the majority team.
      for (std::size_t i = 0; i < kElems; ++i) {
        data[i] = static_cast<std::uint64_t>(pe.rank() + 1);
      }
      dispatch_reduce_all<OpSum>(scratch, data, kElems, 1, *team);
      std::uint64_t expect = 0;
      for (const int wr : team->members()) {
        expect += static_cast<std::uint64_t>(wr + 1);
      }
      for (std::size_t i = 0; i < kElems; ++i) ok &= scratch[i] == expect;
      d.reduced[me] = scratch[0];
      d.verified[me] = ok ? 1 : 0;
    } catch (const PartitionedError& e) {
      d.partitioned[me] = 1;
      d.majorities[me] = e.majority_ranks();
      throw;  // the minority must not act; unwind out of the region
    }
  });

  d.failed_ranks = machine.failed_ranks();
  d.n_alive = machine.n_alive();
  d.counters = testing::modeled_counters(machine).json();
  return d;
}

TEST(PartitionQuorumTest, MajorityShrinksAndMinorityUnwindsTyped) {
  const QuorumDigest d = quorum_run();

  std::vector<int> majority;
  for (int r = 0; r < 48; ++r) majority.push_back(r);
  std::vector<int> minority;
  for (int r = 48; r < 64; ++r) minority.push_back(r);
  std::uint64_t golden = 0;
  for (const int wr : majority) golden += static_cast<std::uint64_t>(wr + 1);

  // Exactly the two ring neighbors facing the cut escalated first-hand.
  EXPECT_EQ(d.unreachable_seen[47], 1);
  EXPECT_EQ(d.unreachable_seen[63], 1);

  for (const int wr : majority) {
    const auto i = static_cast<std::size_t>(wr);
    EXPECT_EQ(d.rosters[i], majority) << "world rank " << wr;
    EXPECT_EQ(d.reduced[i], golden) << "world rank " << wr;
    EXPECT_EQ(d.verified[i], 1) << "world rank " << wr;
    EXPECT_EQ(d.partitioned[i], 0) << "world rank " << wr;
  }
  for (const int wr : minority) {
    const auto i = static_cast<std::size_t>(wr);
    EXPECT_EQ(d.partitioned[i], 1) << "world rank " << wr;
    EXPECT_EQ(d.majorities[i], majority) << "world rank " << wr;
    EXPECT_EQ(d.verified[i], 0) << "world rank " << wr;
  }

  // The region *recovered*: the minority's typed unwinds are acknowledged
  // by the decision, so Machine::run returned normally (or this test would
  // have thrown) and the books show exactly the minority as failed.
  EXPECT_EQ(d.failed_ranks, minority);
  EXPECT_EQ(d.n_alive, 48);
}

TEST(PartitionQuorumTest, PartitionScenarioIsBitIdenticalOnRepeat) {
  const QuorumDigest first = quorum_run();
  const QuorumDigest second = quorum_run();
  EXPECT_TRUE(first == second)
      << "same scripted partition, different books;\nfirst:\n"
      << first.counters << "\nsecond:\n" << second.counters;
}

TEST(PartitionQuorumTest, EvenSplitReachesNoQuorumAndEveryoneUnwinds) {
  // 4 PEs split 2/2: neither side holds a strict majority, so nobody may
  // decide — every rank unwinds with PartitionedError (empty majority) and
  // the region reports the failure instead of letting either half proceed.
  constexpr int kPes = 4;
  FaultConfig fc;
  PartitionSpec p;
  p.lo = 2;
  p.hi = 3;
  p.at = 1;
  fc.partitions.push_back(p);
  fc.barrier_timeout_ms = 30000;
  fc.agree_timeout_ms = 30000;
  Machine machine(config(kPes, fc));

  std::vector<int> unwound(kPes, 0);
  std::vector<int> majority_sizes(kPes, -1);
  try {
    machine.run([&](PeContext& pe) {
      xbrtime_init();
      auto* remote = static_cast<std::uint64_t*>(xbrtime_malloc(64));
      std::uint64_t v = 7;
      const auto me = static_cast<std::size_t>(pe.rank());
      try {
        xbr_put(remote, &v, 1, 1, (pe.rank() + 1) % kPes);
        xbrtime_barrier();
      } catch (const RmaRetriesExhaustedError&) {
        // Ranks 1 and 3 face the cut first-hand (includes PeUnreachable).
      } catch (const PeFailedError&) {
      }
      try {
        (void)xbr_team_shrink();
        ADD_FAILURE() << "no side holds a quorum; nobody may shrink";
      } catch (const PartitionedError& e) {
        unwound[me] = 1;
        majority_sizes[me] = static_cast<int>(e.majority_ranks().size());
        throw;
      }
    });
    FAIL() << "with no quorum anywhere the region cannot succeed";
  } catch (const SpmdRegionError& e) {
    EXPECT_EQ(e.failures().size(), 4u);
  }
  for (int r = 0; r < kPes; ++r) {
    EXPECT_EQ(unwound[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(majority_sizes[static_cast<std::size_t>(r)], 0)
        << "rank " << r << ": no majority exists to report";
  }
  EXPECT_EQ(machine.failed_ranks(), (std::vector<int>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Fail-fast conformance: zero retry budget + dead link => typed termination
// for every blocking operation, under XbrSan full. Nothing may hang.
// ---------------------------------------------------------------------------

struct FailFastOutcome {
  bool typed = false;
  int attempts = 0;
  int peer = -1;
  int link_a = -1;
  int link_b = -1;
  std::string site;
  std::uint64_t san_violations = 0;
};

/// Rank 0 runs `op` against the dead link (0, 1) with max_rma_retries = 0;
/// the op must throw PeUnreachableError on the very first attempt.
FailFastOutcome fail_fast_probe(
    const std::function<void(std::uint64_t*)>& op) {
  FaultConfig fc = down_link(0, 1);
  fc.max_rma_retries = 0;
  Machine machine(config(2, fc, SanMode::kFull));
  FailFastOutcome out;
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* remote = static_cast<std::uint64_t*>(
        xbrtime_malloc(16 * sizeof(std::uint64_t)));
    if (pe.rank() == 0) {
      try {
        op(remote);
        ADD_FAILURE() << "the operation crossed a dead link and must throw";
      } catch (const PeUnreachableError& e) {
        out.typed = true;
        out.attempts = e.attempts();
        out.peer = e.peer();
        out.link_a = e.link_a();
        out.link_b = e.link_b();
        out.site = e.site();
      }
    }
  });
  out.san_violations = collect_counters(machine).get("san.violations").value();
  return out;
}

void expect_fail_fast(const FailFastOutcome& out, const std::string& site) {
  EXPECT_TRUE(out.typed);
  EXPECT_EQ(out.attempts, 1) << "a zero budget means exactly one attempt";
  EXPECT_EQ(out.peer, 1);
  EXPECT_EQ(out.link_a, 0);
  EXPECT_EQ(out.link_b, 1);
  EXPECT_EQ(out.site, site);
  EXPECT_EQ(out.san_violations, 0u);
}

TEST(UnreachableFailFastTest, BlockingPutTerminatesTyped) {
  std::uint64_t local[16] = {};
  expect_fail_fast(
      fail_fast_probe([&](std::uint64_t* r) { xbr_put(r, local, 16, 1, 1); }),
      "link_down");
}

TEST(UnreachableFailFastTest, BlockingGetTerminatesTyped) {
  std::uint64_t local[16] = {};
  expect_fail_fast(
      fail_fast_probe([&](std::uint64_t* r) { xbr_get(local, r, 16, 1, 1); }),
      "link_down");
}

TEST(UnreachableFailFastTest, RemoteAmoTerminatesTyped) {
  expect_fail_fast(fail_fast_probe([](std::uint64_t* r) {
                     (void)xbr_amo_add<std::uint64_t>(r, 1, 1);
                   }),
                   "link_down");
}

TEST(UnreachableFailFastTest, WriteCombinedFlushTerminatesTyped) {
  std::uint64_t local[4] = {1, 2, 3, 4};
  expect_fail_fast(fail_fast_probe([&](std::uint64_t* r) {
                     xbr_wc_enable();
                     xbr_put_wc(r, local, 4, 1, 1);
                     xbr_wc_flush();
                   }),
                   "wc_flush");
}

TEST(UnreachableFailFastTest, CollectiveTerminatesTypedOnBothRanks) {
  FaultConfig fc = down_link(0, 1);
  fc.max_rma_retries = 0;
  Machine machine(config(2, fc, SanMode::kFull));
  std::vector<int> terminated(2, 0);
  std::vector<int> typed(2, 0);
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* data = static_cast<std::uint64_t*>(
        xbrtime_malloc(8 * sizeof(std::uint64_t)));
    auto* out = static_cast<std::uint64_t*>(
        xbrtime_malloc(8 * sizeof(std::uint64_t)));
    for (std::size_t i = 0; i < 8; ++i) data[i] = 1;
    const auto me = static_cast<std::size_t>(pe.rank());
    try {
      dispatch_reduce_all<OpSum>(out, data, 8, 1);
    } catch (const PeUnreachableError&) {
      terminated[me] = 1;
      typed[me] = 1;
    } catch (const PeFailedError&) {
      terminated[me] = 1;
    }
  });
  EXPECT_EQ(terminated, (std::vector<int>{1, 1}))
      << "every participant must terminate, none may hang";
  EXPECT_GE(typed[0] + typed[1], 1)
      << "at least one rank observes the dead link first-hand";
  EXPECT_EQ(collect_counters(machine).get("san.violations").value(), 0u);
}

TEST(UnreachableFailFastTest, BarrierAfterEscalationDoesNotHang) {
  FaultConfig fc = down_link(0, 1);
  fc.max_rma_retries = 0;
  Machine machine(config(2, fc, SanMode::kFull));
  std::vector<int> released(2, 0);
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* remote = static_cast<std::uint64_t*>(xbrtime_malloc(64));
    std::uint64_t v = 9;
    const auto me = static_cast<std::size_t>(pe.rank());
    try {
      if (pe.rank() == 0) xbr_put(remote, &v, 1, 1, 1);
      xbrtime_barrier();
    } catch (const PeUnreachableError&) {
      released[me] = 1;  // rank 0: first-hand escalation
    } catch (const PeFailedError&) {
      released[me] = 1;  // rank 1: poisoned rendezvous, not a hang
    }
  });
  EXPECT_EQ(released, (std::vector<int>{1, 1}));
}

}  // namespace
}  // namespace xbgas
