// Machine-level resilience: injected transfer faults are absorbed by the
// bounded retry/backoff path (with a measurable modeled-time cost), retries
// exhaust into a typed error, scripted kills surface as PeFailedError on
// every survivor, and the whole schedule replays deterministically.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "collectives/collectives.hpp"
#include "support/modeled_counters.hpp"
#include "trace/collect.hpp"
#include "xbrtime/rma.hpp"

namespace xbgas {
namespace {

constexpr std::size_t kElems = 64;
constexpr int kRounds = 50;

MachineConfig config(int n_pes, const FaultConfig& fault) {
  MachineConfig c;
  c.n_pes = n_pes;
  c.layout =
      MemoryLayout{.private_bytes = 64 * 1024, .shared_bytes = 512 * 1024};
  c.fault = fault;
  return c;
}

/// PE 0 repeatedly puts a known pattern into PE 1 and gets it back; returns
/// true when every round-tripped element matched.
void pingpong_body(PeContext& pe, bool* data_ok) {
  xbrtime_init();
  auto* remote = static_cast<std::uint64_t*>(
      xbrtime_malloc(kElems * sizeof(std::uint64_t)));
  std::uint64_t local[kElems];
  std::uint64_t back[kElems];
  bool ok = true;
  if (pe.rank() == 0) {
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < kElems; ++i) {
        local[i] = static_cast<std::uint64_t>(round) * 1000 + i;
      }
      xbr_put(remote, local, kElems, 1, 1);
      std::memset(back, 0, sizeof(back));
      xbr_get(back, remote, kElems, 1, 1);
      for (std::size_t i = 0; i < kElems; ++i) ok &= back[i] == local[i];
    }
  }
  xbrtime_barrier();
  xbrtime_free(remote);
  xbrtime_close();
  if (pe.rank() == 0) *data_ok = ok;
}

TEST(ResilienceTest, RetryAbsorbsTransientDrops) {
  FaultConfig fc;
  fc.seed = 7;
  fc.rma_drop_prob = 0.2;
  fc.max_rma_retries = 12;
  Machine machine(config(2, fc));
  bool data_ok = false;
  machine.run([&](PeContext& pe) { pingpong_body(pe, &data_ok); });
  EXPECT_TRUE(data_ok);

  const CounterRegistry counters = collect_counters(machine);
  EXPECT_GT(counters.get("fault.injected.rma_drop").value(), 0u);
  EXPECT_GT(counters.get("rma.retries").value(), 0u);
  // Every drop was absorbed by exactly one retry (the budget was never
  // exhausted at this rate).
  EXPECT_EQ(counters.get("rma.retries").value(),
            counters.get("fault.injected.rma_drop").value());
}

TEST(ResilienceTest, RetriesAreChargedToModeledTime) {
  bool ok = false;
  Machine clean(config(2, FaultConfig{}));
  clean.run([&](PeContext& pe) { pingpong_body(pe, &ok); });
  const std::uint64_t clean_cycles = clean.max_cycles();

  FaultConfig fc;
  fc.seed = 7;
  fc.rma_drop_prob = 0.2;
  fc.max_rma_retries = 12;
  Machine faulty(config(2, fc));
  faulty.run([&](PeContext& pe) { pingpong_body(pe, &ok); });
  EXPECT_GT(faulty.max_cycles(), clean_cycles)
      << "retransmissions and backoff must show up in simulated time";
}

TEST(ResilienceTest, IdenticalSeedsReplayIdentically) {
  FaultConfig fc;
  fc.seed = 123;
  fc.rma_drop_prob = 0.15;
  fc.rma_delay_prob = 0.1;
  fc.olb_fault_prob = 0.05;
  fc.max_rma_retries = 12;

  auto run_once = [&](std::uint64_t* cycles) {
    Machine machine(config(2, fc));
    bool ok = false;
    machine.run([&](PeContext& pe) { pingpong_body(pe, &ok); });
    EXPECT_TRUE(ok);
    *cycles = machine.max_cycles();
    return testing::modeled_counters(machine).json();
  };
  std::uint64_t cycles_a = 0;
  std::uint64_t cycles_b = 0;
  const std::string a = run_once(&cycles_a);
  const std::string b = run_once(&cycles_b);
  EXPECT_EQ(a, b) << "same seed must inject the same faults at the same sites";
  EXPECT_EQ(cycles_a, cycles_b);
}

TEST(ResilienceTest, RetriesExhaustedThrowsTypedComposite) {
  FaultConfig fc;
  fc.seed = 1;
  fc.rma_drop_prob = 1.0;  // every attempt fails
  fc.max_rma_retries = 2;
  Machine machine(config(2, fc));
  try {
    machine.run([&](PeContext& pe) {
      xbrtime_init();
      auto* remote = static_cast<std::uint64_t*>(xbrtime_malloc(64));
      std::uint64_t v = 42;
      if (pe.rank() == 0) xbr_put(remote, &v, 1, 1, 1);
      xbrtime_barrier();
      xbrtime_free(remote);
      xbrtime_close();
    });
    FAIL() << "expected retries to exhaust";
  } catch (const SpmdRegionError& e) {
    EXPECT_NE(std::string(e.what()).find("retries exhausted"),
              std::string::npos);
    ASSERT_FALSE(e.failures().empty());
    EXPECT_EQ(e.failures().front().rank, 0);  // the putter is the primary
    EXPECT_FALSE(e.failures().front().secondary);
  }
  EXPECT_FALSE(machine.alive(0));
  EXPECT_TRUE(machine.alive(1));
}

TEST(ResilienceTest, ChecksumTurnsBitflipsIntoRetries) {
  FaultConfig fc;
  fc.seed = 21;
  fc.rma_bitflip_prob = 0.3;
  fc.verify_checksum = true;
  fc.max_rma_retries = 16;
  Machine machine(config(2, fc));
  bool data_ok = false;
  machine.run([&](PeContext& pe) { pingpong_body(pe, &data_ok); });
  EXPECT_TRUE(data_ok) << "verified transfers must deliver correct payloads";

  const CounterRegistry counters = collect_counters(machine);
  EXPECT_GT(counters.get("fault.injected.bitflip").value(), 0u);
  // Every injected flip was detected — none slipped through silently.
  EXPECT_EQ(counters.get("rma.checksum_failures").value(),
            counters.get("fault.injected.bitflip").value());
}

TEST(ResilienceTest, BitflipWithoutChecksumCorruptsSilently) {
  // Documents why verify_checksum exists: without it an injected flip is
  // silent data corruption at the destination.
  FaultConfig fc;
  fc.seed = 3;
  fc.rma_bitflip_prob = 1.0;
  fc.verify_checksum = false;
  Machine machine(config(2, fc));
  bool corrupted = false;
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* remote = static_cast<std::uint64_t*>(xbrtime_malloc(64));
    if (pe.rank() == 0) {
      const std::uint64_t v = 0xDEADBEEFull;
      xbr_put(remote, &v, 1, 1, 1);
    }
    xbrtime_barrier();
    if (pe.rank() == 1) corrupted = *remote != 0xDEADBEEFull;
    xbrtime_barrier();
    xbrtime_free(remote);
    xbrtime_close();
  });
  EXPECT_TRUE(corrupted);
}

TEST(ResilienceTest, DelayFaultsSlowTheClockWithoutRetries) {
  FaultConfig fc;
  fc.seed = 4;
  fc.rma_delay_prob = 1.0;
  fc.delay_cycles = 10000;
  Machine machine(config(2, fc));
  bool ok = false;
  machine.run([&](PeContext& pe) { pingpong_body(pe, &ok); });
  EXPECT_TRUE(ok);
  const CounterRegistry counters = collect_counters(machine);
  EXPECT_EQ(counters.get("fault.injected.rma_delay").value(),
            static_cast<std::uint64_t>(2 * kRounds));  // one per transfer
  EXPECT_EQ(counters.get("rma.retries").value(), 0u);
}

TEST(ResilienceTest, OlbFaultsAreRetried) {
  FaultConfig fc;
  fc.seed = 8;
  fc.olb_fault_prob = 0.25;
  fc.max_rma_retries = 12;
  Machine machine(config(2, fc));
  bool ok = false;
  machine.run([&](PeContext& pe) { pingpong_body(pe, &ok); });
  EXPECT_TRUE(ok);
  const CounterRegistry counters = collect_counters(machine);
  EXPECT_GT(counters.get("fault.injected.olb_fault").value(), 0u);
  EXPECT_EQ(counters.get("rma.retries").value(),
            counters.get("fault.injected.olb_fault").value());
}

TEST(ResilienceTest, ScriptedKillSurfacesAsPeFailedOnSurvivors) {
  FaultConfig fc;
  fc.kills.push_back(KillSpec{2, KillSite::kBarrier, 4});
  fc.barrier_timeout_ms = 20000;  // a watchdog turns any regression hang
                                  // into a diagnosed failure
  Machine machine(config(4, fc));
  try {
    machine.run([&](PeContext&) {
      xbrtime_init();
      for (int i = 0; i < 10; ++i) xbrtime_barrier();
      xbrtime_close();
    });
    FAIL() << "expected the scripted kill to propagate";
  } catch (const SpmdRegionError& e) {
    ASSERT_EQ(e.failures().size(), 4u);
    const PeFailure& primary = e.failures().front();
    EXPECT_EQ(primary.rank, 2);
    EXPECT_FALSE(primary.secondary);
    EXPECT_NE(primary.what.find("scripted fault"), std::string::npos);
    // Every survivor reports the same verdict: PE 2 failed.
    for (std::size_t i = 1; i < e.failures().size(); ++i) {
      EXPECT_TRUE(e.failures()[i].secondary);
      EXPECT_NE(e.failures()[i].what.find("PE 2 failed"), std::string::npos);
    }
  }
  EXPECT_EQ(machine.n_alive(), 3);
  EXPECT_EQ(machine.failed_ranks(), std::vector<int>{2});
  ASSERT_EQ(machine.failures().size(), 4u);
  const CounterRegistry counters = collect_counters(machine);
  EXPECT_EQ(counters.get("fault.injected.kills").value(), 1u);
  EXPECT_EQ(counters.get("machine.pes_failed").value(), 1u);
}

TEST(ResilienceTest, FaultEventsAppearInTrace) {
  FaultConfig fc;
  fc.seed = 7;
  fc.rma_drop_prob = 0.2;
  fc.max_rma_retries = 12;
  MachineConfig mc = config(2, fc);
  mc.trace.enabled = true;
  Machine machine(mc);
  bool ok = false;
  machine.run([&](PeContext& pe) { pingpong_body(pe, &ok); });
  EXPECT_TRUE(ok);

  int inject_events = 0;
  int retry_events = 0;
  for (const TraceEvent& ev : machine.tracer().ring(0)->snapshot()) {
    inject_events += ev.kind == EventKind::kFaultInject ? 1 : 0;
    retry_events += ev.kind == EventKind::kRmaRetry ? 1 : 0;
  }
  EXPECT_GT(inject_events, 0);
  EXPECT_GT(retry_events, 0);
}

}  // namespace
}  // namespace xbgas
