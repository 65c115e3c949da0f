// Randomized fault sweep: across a grid of seeds x fault rates, collectives
// must either complete with correct data on every PE or unwind with the same
// typed error on every PE — never hang, never silently corrupt. A barrier
// watchdog is armed in every cell so a regression that would deadlock shows
// up as a diagnosed BarrierTimeoutError instead of a stuck test run.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "collectives/collectives.hpp"
#include "trace/collect.hpp"
#include "xbrtime/rma.hpp"

namespace xbgas {
namespace {

constexpr int kPes = 4;
constexpr std::size_t kElems = 32;

MachineConfig sweep_config(const FaultConfig& fault) {
  MachineConfig c;
  c.n_pes = kPes;
  c.layout =
      MemoryLayout{.private_bytes = 64 * 1024, .shared_bytes = 512 * 1024};
  c.fault = fault;
  if (c.fault.barrier_timeout_ms == 0) {
    c.fault.barrier_timeout_ms = 20000;  // hang => diagnosis, not a stuck job
  }
  return c;
}

/// Broadcast from root, then reduce<OpSum> back to root; every PE validates
/// everything it can see and reports into `ok[rank]`.
void collective_round_body(PeContext& pe, std::vector<char>* ok) {
  xbrtime_init();
  const std::size_t bytes = kElems * sizeof(std::uint64_t);
  auto* bcast = static_cast<std::uint64_t*>(xbrtime_malloc(bytes));
  auto* contrib = static_cast<std::uint64_t*>(xbrtime_malloc(bytes));
  auto* sum = static_cast<std::uint64_t*>(xbrtime_malloc(bytes));
  std::uint64_t src[kElems];
  bool good = true;
  for (int root = 0; root < kPes; ++root) {
    for (std::size_t i = 0; i < kElems; ++i) {
      src[i] = pe.rank() == root ? 1000 * static_cast<std::uint64_t>(root) + i
                                 : 0;
      bcast[i] = 0;
      contrib[i] = static_cast<std::uint64_t>(pe.rank()) + i;
      sum[i] = 0;
    }
    xbrtime_barrier();  // dest zeroed everywhere before any peer's put lands
    broadcast(bcast, src, kElems, 1, root);
    for (std::size_t i = 0; i < kElems; ++i) {
      good &= bcast[i] == 1000 * static_cast<std::uint64_t>(root) + i;
    }
    reduce<OpSum>(sum, contrib, kElems, 1, root);
    if (pe.rank() == root) {
      for (std::size_t i = 0; i < kElems; ++i) {
        // sum over ranks r of (r + i)
        const std::uint64_t want =
            kPes * (kPes - 1) / 2 + kPes * static_cast<std::uint64_t>(i);
        good &= sum[i] == want;
      }
    }
  }
  xbrtime_barrier();
  xbrtime_free(sum);
  xbrtime_free(contrib);
  xbrtime_free(bcast);
  xbrtime_close();
  (*ok)[static_cast<std::size_t>(pe.rank())] = good ? 1 : 0;
}

/// Run one sweep cell. Returns "ok" when the region completed with correct
/// data everywhere, or "failed" when it unwound with the expected typed
/// composite; any other outcome fails the test.
std::string run_cell(const FaultConfig& fc) {
  Machine machine(sweep_config(fc));
  std::vector<char> ok(kPes, 0);
  try {
    machine.run([&](PeContext& pe) { collective_round_body(pe, &ok); });
  } catch (const SpmdRegionError& e) {
    // Unwinding is acceptable — but it must be coherent: at least one
    // primary whose cause is the injected fault class, and every secondary
    // reporting the fail-fast protocol (a named dead PE), never a timeout.
    EXPECT_FALSE(e.failures().empty());
    bool saw_primary = false;
    for (const PeFailure& f : e.failures()) {
      if (!f.secondary) {
        saw_primary = true;
        EXPECT_NE(f.what.find("retries exhausted"), std::string::npos)
            << "unexpected primary cause: " << f.what;
      } else {
        EXPECT_NE(f.what.find("failed"), std::string::npos);
      }
      EXPECT_EQ(f.what.find("watchdog"), std::string::npos)
          << "a watchdog timeout means a survivor hung instead of "
             "failing fast: "
          << f.what;
    }
    EXPECT_TRUE(saw_primary);
    EXPECT_GT(machine.failed_ranks().size(), 0u);
    return "failed";
  }
  for (int r = 0; r < kPes; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)])
        << "PE " << r << " saw corrupted collective data";
  }
  return "ok";
}

TEST(FaultSweepTest, DropRateGridCompletesOrFailsCleanly) {
  const std::uint64_t seeds[] = {1, 7, 42, 1234};
  const double rates[] = {0.0, 0.02, 0.2, 0.6};
  int completed = 0;
  int unwound = 0;
  for (const std::uint64_t seed : seeds) {
    for (const double rate : rates) {
      FaultConfig fc;
      fc.seed = seed;
      fc.rma_drop_prob = rate;
      fc.max_rma_retries = 5;
      const std::string outcome = run_cell(fc);
      completed += outcome == "ok" ? 1 : 0;
      unwound += outcome == "failed" ? 1 : 0;
      // Determinism: the same cell must reproduce the same outcome.
      EXPECT_EQ(run_cell(fc), outcome) << "seed " << seed << " rate " << rate;
    }
  }
  // The grid must exercise the success path (rate 0 always completes); the
  // high-rate cells may unwind, and both paths were validated above.
  EXPECT_GE(completed, static_cast<int>(std::size(seeds)));
  EXPECT_EQ(completed + unwound,
            static_cast<int>(std::size(seeds) * std::size(rates)));
}

TEST(FaultSweepTest, MixedFaultGridNeverSilentlyCorrupts) {
  // Bit-flips with checksums on, plus drops and OLB faults: whatever the
  // mix does, data observed by the application is never wrong.
  const std::uint64_t seeds[] = {3, 9, 77};
  for (const std::uint64_t seed : seeds) {
    FaultConfig fc;
    fc.seed = seed;
    fc.rma_drop_prob = 0.05;
    fc.rma_bitflip_prob = 0.1;
    fc.olb_fault_prob = 0.05;
    fc.verify_checksum = true;
    fc.max_rma_retries = 16;
    Machine machine(sweep_config(fc));
    std::vector<char> ok(kPes, 0);
    machine.run([&](PeContext& pe) { collective_round_body(pe, &ok); });
    for (int r = 0; r < kPes; ++r) {
      EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "PE " << r;
    }
    const CounterRegistry counters = collect_counters(machine);
    EXPECT_EQ(counters.get("rma.checksum_failures").value(),
              counters.get("fault.injected.bitflip").value())
        << "every injected flip must be caught by verification";
  }
}

TEST(FaultSweepTest, KillEachRankMidCollective) {
  // Scripted kill sweep: whichever rank dies, every survivor reports the
  // same dead PE and the machine's health view agrees. No cell may hang.
  for (int victim = 0; victim < kPes; ++victim) {
    FaultConfig fc;
    fc.kills.push_back(KillSpec{victim, KillSite::kRma, 3});
    Machine machine(sweep_config(fc));
    std::vector<char> ok(kPes, 0);
    try {
      machine.run([&](PeContext& pe) { collective_round_body(pe, &ok); });
      FAIL() << "scripted kill of rank " << victim << " must propagate";
    } catch (const SpmdRegionError& e) {
      ASSERT_FALSE(e.failures().empty());
      const PeFailure& primary = e.failures().front();
      EXPECT_EQ(primary.rank, victim);
      EXPECT_FALSE(primary.secondary);
      EXPECT_NE(primary.what.find("scripted fault"), std::string::npos);
      const std::string dead_tag = "PE " + std::to_string(victim) + " failed";
      for (const PeFailure& f : e.failures()) {
        if (f.rank == victim) continue;
        EXPECT_TRUE(f.secondary);
        EXPECT_NE(f.what.find(dead_tag), std::string::npos);
      }
    }
    EXPECT_FALSE(machine.alive(victim));
    EXPECT_EQ(machine.failed_ranks(), std::vector<int>{victim});
  }
}

}  // namespace
}  // namespace xbgas
