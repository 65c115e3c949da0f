// Write-combining RMA engine (ISSUE PR 8 tentpole: xbr_put_wc).
//
// Contracts under test:
//   1. Correctness: a GUPs-style storm of small puts lands bitwise-identical
//      with coalescing on and off (each writer owns a disjoint stripe of the
//      target, so the comparison is exact, and the sweep runs clean under
//      XbrSan full via the conformance-style harness below).
//   2. The modeled-cycle win: k small puts to one target cost one alpha
//      after coalescing instead of k, at least halving the storm's cycles.
//   3. Flush points: capacity overflow flushes automatically; a barrier is a
//      fence (remote data visible after it); xbr_wc_disable degrades
//      xbr_put_wc to plain blocking puts.
//   4. Determinism: the same storm twice produces identical modeled cycles.
//   5. rma.coalesced.* counters show real batching (messages > flushes).
//   6. Fault accounting: a flush counts and traces each injected fault at
//      its own site, exactly like the xbr_put it replaces.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "machine/machine.hpp"
#include "xbrtime/nbi.hpp"
#include "xbrtime/runtime.hpp"
#include "xbrtime/wc.hpp"

namespace xbgas {
namespace {

MachineConfig config(int n_pes, SanMode mode = SanMode::kOff) {
  MachineConfig c;
  c.n_pes = n_pes;
  c.layout = MemoryLayout{.private_bytes = 64 * 1024,
                          .shared_bytes = 1024 * 1024};
  c.san.mode = mode;
  return c;
}

/// Deterministic GUPs-style update: pure function of (seed, writer, i).
std::uint64_t gup_val(std::uint64_t seed, int writer, std::size_t i) {
  SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(writer) << 32) ^ i);
  return rng.next();
}

/// One storm: every PE scatters `updates` single-word puts round-robin over
/// the other PEs, into its own rank-owned stripe of each target's table
/// (disjoint stripes => no write races, exact bitwise comparison). Returns
/// the issuing PE's cycles spent in the storm (including the final fence).
std::uint64_t run_storm(PeContext& pe, std::uint64_t* table,
                        std::size_t slots_per_writer, std::size_t updates,
                        std::uint64_t seed, bool coalesce) {
  const int me = pe.rank();
  const int n = pe.n_pes();
  if (coalesce) xbr_wc_enable(/*threshold_bytes=*/64, /*capacity_entries=*/64);
  const std::uint64_t t0 = pe.clock().cycles();
  for (std::size_t i = 0; i < updates; ++i) {
    const int target = (me + 1 + static_cast<int>(i) % (n - 1)) % n;
    const std::size_t slot =
        static_cast<std::size_t>(me) * slots_per_writer + i % slots_per_writer;
    std::uint64_t v = gup_val(seed, me, i);
    xbr_put_wc(table + slot, &v, 1, 1, target);
  }
  xbr_fence();  // flushes the combiner and settles all modeled time
  const std::uint64_t spent = pe.clock().cycles() - t0;
  if (coalesce) xbr_wc_disable();
  return spent;
}

TEST(WriteCombinerTest, StormLandsBitwiseIdenticalOnAndOff) {
  constexpr int kPes = 4;
  constexpr std::size_t kSlots = 32;
  constexpr std::size_t kUpdates = 256;
  std::vector<std::uint64_t> table_off, table_on;
  std::uint64_t cycles_off = 0, cycles_on = 0;
  for (const bool coalesce : {false, true}) {
    Machine machine(config(kPes, SanMode::kFull));
    std::vector<std::uint64_t> snapshot;
    std::uint64_t spent = 0;
    machine.run([&](PeContext& pe) {
      xbrtime_init();
      auto* table = static_cast<std::uint64_t*>(
          xbrtime_malloc(kPes * kSlots * sizeof(std::uint64_t)));
      for (std::size_t s = 0; s < kPes * kSlots; ++s) table[s] = 0;
      xbrtime_barrier();
      const std::uint64_t c =
          run_storm(pe, table, kSlots, kUpdates, 0x6a95ULL, coalesce);
      xbrtime_barrier();
      if (pe.rank() == 0) {
        spent = c;
        snapshot.assign(table, table + kPes * kSlots);
      }
      xbrtime_barrier();
      xbrtime_free(table);
      xbrtime_close();
    });
    ASSERT_EQ(machine.sanitizer().counters().violations, 0u);
    if (coalesce) {
      table_on = snapshot;
      cycles_on = spent;
    } else {
      table_off = snapshot;
      cycles_off = spent;
    }
  }
  // Bitwise-identical payloads on PE 0's table...
  ASSERT_EQ(table_on, table_off);
  // ...and the coalesced storm at least halves the modeled cycles.
  EXPECT_LE(2 * cycles_on, cycles_off)
      << "coalesced=" << cycles_on << " blocking=" << cycles_off;
}

TEST(WriteCombinerTest, CapacityOverflowFlushesAutomatically) {
  reset_wc_counters();
  Machine machine(config(2));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<std::uint64_t*>(
        xbrtime_malloc(64 * sizeof(std::uint64_t)));
    xbrtime_barrier();
    if (pe.rank() == 0) {
      xbr_wc_enable(/*threshold_bytes=*/64, /*capacity_entries=*/8);
      for (std::size_t i = 0; i < 20; ++i) {
        std::uint64_t v = 100 + i;
        xbr_put_wc(buf + i, &v, 1, 1, 1);
      }
      // 20 enqueues over a capacity of 8 must have flushed at least twice
      // before any explicit fence.
      EXPECT_GE(wc_counters().flushes, 2u);
      xbr_wc_disable();
    }
    xbrtime_barrier();
    if (pe.rank() == 1) {
      for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(buf[i], 100 + i);
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  const WcCounters c = wc_counters();
  EXPECT_EQ(c.puts, 20u);
  EXPECT_EQ(c.enqueued, 20u);
  EXPECT_EQ(c.messages, 20u);
  EXPECT_EQ(c.bytes, 20u * sizeof(std::uint64_t));
  EXPECT_GT(c.messages, c.flushes) << "no batching happened";
}

TEST(WriteCombinerTest, BarrierIsAFlushPointAndDisableDegradesToPut) {
  Machine machine(config(2));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<std::uint64_t*>(
        xbrtime_malloc(8 * sizeof(std::uint64_t)));
    for (std::size_t i = 0; i < 8; ++i) buf[i] = 0;
    xbrtime_barrier();
    if (pe.rank() == 0) {
      xbr_wc_enable();
      std::uint64_t v = 42;
      xbr_put_wc(buf, &v, 1, 1, 1);
      EXPECT_TRUE(xbr_wc_enabled());
    }
    xbrtime_barrier();  // barrier = fence: the buffered put must be visible
    if (pe.rank() == 1) {
      EXPECT_EQ(buf[0], 42u);
    }
    xbrtime_barrier();
    if (pe.rank() == 0) {
      xbr_wc_disable();
      EXPECT_FALSE(xbr_wc_enabled());
      // Degraded path: a plain blocking put, visible after the next barrier
      // like any other (and ineligible calls — strided, oversized — fall
      // through the same way even while coalescing is on).
      std::uint64_t v = 43;
      xbr_put_wc(buf + 1, &v, 1, 1, 1);
    }
    xbrtime_barrier();
    if (pe.rank() == 1) {
      EXPECT_EQ(buf[1], 43u);
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
}

TEST(WriteCombinerTest, IneligiblePutsFallThroughToBlockingPath) {
  reset_wc_counters();
  Machine machine(config(2));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<std::uint64_t*>(
        xbrtime_malloc(64 * sizeof(std::uint64_t)));
    for (std::size_t i = 0; i < 64; ++i) buf[i] = 0;
    xbrtime_barrier();
    if (pe.rank() == 0) {
      xbr_wc_enable(/*threshold_bytes=*/16, /*capacity_entries=*/8);
      std::vector<std::uint64_t> src(32);
      for (std::size_t i = 0; i < 32; ++i) src[i] = 200 + i;
      // Strided: ineligible.
      xbr_put_wc(buf, src.data(), 4, 2, 1);
      // Over the 16-byte threshold: ineligible.
      xbr_put_wc(buf + 8, src.data() + 8, 8, 1, 1);
      // Local target: ineligible (pe == rank), still lands.
      xbr_put_wc(buf + 16, src.data() + 16, 2, 1, 0);
      xbr_wc_disable();
    }
    xbrtime_barrier();
    if (pe.rank() == 1) {
      // Strided RMA strides BOTH sides: element i moves src[i*stride] into
      // dest[i*stride].
      EXPECT_EQ(buf[0], 200u);
      EXPECT_EQ(buf[2], 202u);
      EXPECT_EQ(buf[8], 208u);
      EXPECT_EQ(buf[15], 215u);
    }
    if (pe.rank() == 0) {
      EXPECT_EQ(buf[16], 216u);
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  const WcCounters c = wc_counters();
  EXPECT_EQ(c.puts, 3u);
  EXPECT_EQ(c.enqueued, 0u);  // every call fell through
}

TEST(WriteCombinerTest, SameSeedStormIsCycleDeterministic) {
  constexpr int kPes = 3;
  std::uint64_t first = 0;
  for (int run = 0; run < 2; ++run) {
    Machine machine(config(kPes));
    std::uint64_t spent = 0;
    machine.run([&](PeContext& pe) {
      xbrtime_init();
      auto* table = static_cast<std::uint64_t*>(
          xbrtime_malloc(kPes * 16 * sizeof(std::uint64_t)));
      xbrtime_barrier();
      const std::uint64_t c =
          run_storm(pe, table, 16, 96, 0xdecafULL, /*coalesce=*/true);
      xbrtime_barrier();
      if (pe.rank() == 0) spent = c;
      xbrtime_barrier();
      xbrtime_free(table);
      xbrtime_close();
    });
    if (run == 0) {
      first = spent;
    } else {
      EXPECT_EQ(spent, first) << "coalesced storm must replay identically";
    }
  }
}

/// What a faulty run of 200 single-word puts from PE 0 to PE 1 reports:
/// the per-site fault counters, the kFaultInject events per site, and the
/// modeled end time.
struct FaultTally {
  std::uint64_t olb_faults = 0;
  std::uint64_t rma_drops = 0;
  std::uint64_t rma_delays = 0;
  std::uint64_t rma_retries = 0;
  std::array<std::uint64_t, 16> events_by_site{};
  std::uint64_t max_cycles = 0;

  bool operator==(const FaultTally&) const = default;
};

FaultTally run_faulty_puts(const FaultConfig& fc, bool combine) {
  MachineConfig c = config(2);
  c.fault = fc;
  c.trace.enabled = true;
  Machine machine(c);
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<std::uint64_t*>(
        xbrtime_malloc(200 * sizeof(std::uint64_t)));
    xbrtime_barrier();
    if (pe.rank() == 0) {
      // Capacity 1: every xbr_put_wc flushes its one entry at once.
      if (combine) xbr_wc_enable(/*threshold_bytes=*/64, /*capacity=*/1);
      for (std::uint64_t i = 0; i < 200; ++i) {
        if (combine) {
          xbr_put_wc(buf + i, &i, 1, 1, 1);
        } else {
          xbr_put(buf + i, &i, 1, 1, 1);
        }
      }
      if (combine) xbr_wc_disable();
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  FaultTally t;
  const FaultCounters& fcnt = machine.fault_injector().counters();
  t.olb_faults = fcnt.olb_faults.load();
  t.rma_drops = fcnt.rma_drops.load();
  t.rma_delays = fcnt.rma_delays.load();
  t.rma_retries = fcnt.rma_retries.load();
  for (int pe = 0; pe < 2; ++pe) {
    const EventRing* ring = machine.tracer().ring(pe);
    if (ring == nullptr) continue;
    for (const TraceEvent& e : ring->snapshot()) {
      if (e.kind == EventKind::kFaultInject) ++t.events_by_site.at(e.a);
    }
  }
  t.max_cycles = machine.max_cycles();
  return t;
}

TEST(WriteCombinerTest, FlushCountsAndTracesFaultsPerSiteLikePut) {
  FaultConfig olb;
  olb.olb_fault_prob = 0.3;
  FaultConfig drops;
  drops.rma_drop_prob = 0.3;
  drops.rma_delay_prob = 0.2;
  for (FaultConfig fc : {olb, drops}) {
    fc.seed = 7;
    fc.max_rma_retries = 12;
    const FaultTally put = run_faulty_puts(fc, /*combine=*/false);
    const FaultTally wc = run_faulty_puts(fc, /*combine=*/true);
    EXPECT_GT(put.olb_faults + put.rma_drops, 0u) << "no fault fired";
    EXPECT_EQ(wc.olb_faults, put.olb_faults);
    EXPECT_EQ(wc.rma_drops, put.rma_drops);
    EXPECT_EQ(wc.rma_delays, put.rma_delays);
    EXPECT_EQ(wc.rma_retries, put.rma_retries);
    EXPECT_EQ(wc.events_by_site, put.events_by_site);
    EXPECT_EQ(wc.max_cycles, put.max_cycles);
  }
}

}  // namespace
}  // namespace xbgas
