// FiberScheduler unit suite: the N:M execution substrate under Machine::run
// (docs/SCALING.md). Locks down the scheduler invariants the rest of the
// stack relies on — single-worker determinism (round-robin fairness), no
// lost wakeups for poll-based waiters, exception capture across context
// switches, and that seeded yield injection perturbs the host schedule
// without perturbing simulated time.

#include "machine/fiber.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "machine/machine.hpp"
#include "xbrtime/rma.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {
namespace {

SchedConfig single_worker() {
  SchedConfig c;
  c.workers = 1;
  return c;
}

TEST(SchedTest, RunsEveryFiberToCompletion) {
  FiberScheduler sched(SchedConfig{}, 32);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    sched.spawn([&done] { done.fetch_add(1); }, nullptr);
  }
  sched.run();
  EXPECT_EQ(done.load(), 32);
  EXPECT_EQ(sched.stats().fibers, 32u);
  EXPECT_EQ(sched.stats().regions, 1u);
  EXPECT_GE(sched.stats().switches, 32u);
}

TEST(SchedTest, SingleWorkerYieldOrderIsRoundRobin) {
  // One worker + FIFO ready queue = strict round-robin: the interleaving is
  // fully deterministic, which is what makes single-core runs reproducible.
  FiberScheduler sched(single_worker(), 3);
  std::vector<int> order;  // single worker: no concurrent writers
  for (int id = 0; id < 3; ++id) {
    sched.spawn([&order, id] {
      for (int slice = 0; slice < 3; ++slice) {
        order.push_back(id);
        FiberScheduler::yield();
      }
    }, nullptr);
  }
  sched.run();
  const std::vector<int> expect{0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_EQ(order, expect);
}

TEST(SchedTest, PollWaitersSeeProgressNoLostWakeups) {
  // A dependency chain longer than the worker pool: fiber i may only finish
  // after fiber i-1 bumped the token. Parked fibers are re-run by
  // construction (no wait list, no wakeup to lose), so this must complete
  // even with every fiber multiplexed onto one worker.
  constexpr int kN = 64;
  FiberScheduler sched(single_worker(), kN);
  std::atomic<int> token{0};
  // Spawned in REVERSE dependency order: the first kN-1 fibers all park
  // before the one that can make progress even gets a slice.
  for (int id = kN - 1; id >= 0; --id) {
    sched.spawn([&token, id] {
      while (token.load(std::memory_order_acquire) != id) {
        FiberScheduler::yield_waiting();
      }
      token.store(id + 1, std::memory_order_release);
    }, nullptr);
  }
  sched.run();
  EXPECT_EQ(token.load(), kN);
  EXPECT_GT(sched.stats().yields_waiting, 0u);
}

TEST(SchedTest, ReverseChainCompletesUnderFewWorkers) {
  // Worst case for a blocking implementation: the fiber everyone waits on
  // is spawned LAST, behind kN-1 already-parked waiters. If any waiter held
  // its worker while waiting, the releasing fiber could never run.
  constexpr int kN = 48;
  SchedConfig cfg;
  cfg.workers = 2;
  FiberScheduler sched(cfg, kN);
  std::atomic<bool> release{false};
  std::atomic<int> finished{0};
  for (int id = 0; id < kN - 1; ++id) {
    sched.spawn([&] {
      while (!release.load(std::memory_order_acquire)) {
        FiberScheduler::yield_waiting();
      }
      finished.fetch_add(1);
    }, nullptr);
  }
  sched.spawn([&] { release.store(true, std::memory_order_release); },
              nullptr);
  sched.run();
  EXPECT_EQ(finished.load(), kN - 1);
}

TEST(SchedTest, UserDataAndOnFiberReflectTheCallingFiber) {
  EXPECT_FALSE(FiberScheduler::on_fiber());
  EXPECT_EQ(FiberScheduler::current_user_data(), nullptr);
  int a = 0, b = 0;
  FiberScheduler sched(single_worker(), 2);
  void* seen_a = nullptr;
  void* seen_b = nullptr;
  sched.spawn([&] {
    EXPECT_TRUE(FiberScheduler::on_fiber());
    FiberScheduler::yield();
    seen_a = FiberScheduler::current_user_data();  // survives migration
  }, &a);
  sched.spawn([&] { seen_b = FiberScheduler::current_user_data(); }, &b);
  sched.run();
  EXPECT_EQ(seen_a, &a);
  EXPECT_EQ(seen_b, &b);
  EXPECT_FALSE(FiberScheduler::on_fiber());
}

TEST(SchedTest, FiberExceptionIsRethrownAfterAllFibersStop) {
  FiberScheduler sched(single_worker(), 3);
  std::atomic<int> completed{0};
  sched.spawn([] { throw std::runtime_error("fiber boom"); }, nullptr);
  sched.spawn([&completed] { completed.fetch_add(1); }, nullptr);
  sched.spawn([&completed] { completed.fetch_add(1); }, nullptr);
  EXPECT_THROW(sched.run(), std::runtime_error);
  // The failure must not strand the other fibers: run() drains everything
  // first, then rethrows.
  EXPECT_EQ(completed.load(), 2);
}

TEST(SchedTest, CatchHandlersKeepTheirExceptionAcrossYields) {
  // Every fiber yields inside its own catch handler while the others throw
  // and catch theirs. The C++ runtime tracks the exceptions being handled
  // per thread, so each fiber must carry its own across switches: resumed —
  // on 4 workers possibly elsewhere — a rethrow inside the handler still
  // yields that fiber's exception.
  constexpr int kFibers = 8;
  for (const int workers : {1, 4}) {
    SchedConfig cfg;
    cfg.workers = workers;
    FiberScheduler sched(cfg, kFibers);
    std::atomic<int> own{0};
    for (int id = 0; id < kFibers; ++id) {
      sched.spawn([&own, id] {
        try {
          throw std::runtime_error(std::to_string(id));
        } catch (const std::runtime_error&) {
          for (int i = 0; i < 4; ++i) FiberScheduler::yield();
          try {
            throw;
          } catch (const std::runtime_error& e) {
            if (std::to_string(id) == e.what()) own.fetch_add(1);
          }
        }
      }, nullptr);
    }
    sched.run();
    EXPECT_EQ(own.load(), kFibers) << "workers " << workers;
  }
}

TEST(SchedTest, RejectsUndersizedStacks) {
  SchedConfig cfg;
  cfg.stack_bytes = 4 * 1024;
  EXPECT_THROW(FiberScheduler(cfg, 1), Error);
}

// -- Machine-level behavior of the fiber execution model --

MachineConfig small_machine(int n_pes) {
  MachineConfig c;
  c.n_pes = n_pes;
  c.layout = MemoryLayout{.private_bytes = 64 * 1024,
                          .shared_bytes = 1024 * 1024};
  return c;
}

/// A workload with RMA traffic (cooperative poll points) and barriers.
/// Returns per-rank neighbor values so callers can assert on data too.
void ring_workload(PeContext& pe, std::vector<std::uint64_t>& out) {
  xbrtime_init();
  auto* slot = static_cast<std::uint64_t*>(
      xbrtime_malloc(sizeof(std::uint64_t)));
  const int n = pe.n_pes();
  const int right = (pe.rank() + 1) % n;
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t v =
        static_cast<std::uint64_t>(pe.rank() * 1000 + round);
    xbr_put(slot, &v, 1, 1, right);
    xbrtime_barrier();
    out[static_cast<std::size_t>(pe.rank())] = *slot;
    xbrtime_barrier();
  }
  xbrtime_free(slot);
  xbrtime_close();
}

TEST(SchedMachineTest, YieldInjectionShakesScheduleNotSimulatedTime) {
  // Any schedule a random yield pattern can produce must complete with
  // bit-identical simulated time and data: simulated time depends only on
  // the modeled machine, never on host interleaving. The baseline is one
  // worker without injection (strict round-robin); 4 workers run the same
  // fibers on a schedule the host decides independently.
  std::uint64_t base_cycles = 0;
  std::vector<std::uint64_t> base_data(8, 0);
  {
    MachineConfig cfg = small_machine(8);
    cfg.sched.workers = 1;
    Machine machine(cfg);
    machine.run([&](PeContext& pe) { ring_workload(pe, base_data); });
    base_cycles = machine.max_cycles();
  }
  for (const int workers : {1, 4}) {
    for (const std::uint64_t seed : {1u, 99u}) {
      MachineConfig cfg = small_machine(8);
      cfg.sched.workers = workers;
      cfg.sched.yield_inject_prob = 0.5;
      cfg.sched.yield_inject_seed = seed;
      Machine machine(cfg);
      std::vector<std::uint64_t> data(8, 0);
      machine.run([&](PeContext& pe) { ring_workload(pe, data); });
      EXPECT_EQ(machine.max_cycles(), base_cycles)
          << "workers " << workers << ", seed " << seed;
      EXPECT_EQ(data, base_data) << "workers " << workers << ", seed " << seed;
      EXPECT_GT(machine.sched_stats().injected_yields, 0u)
          << "workers " << workers << ", seed " << seed;
    }
  }
}

TEST(SchedMachineTest, StatsAccumulateAcrossRegions) {
  Machine machine(small_machine(4));
  machine.run([](PeContext&) {});
  machine.run([](PeContext&) {});
  const SchedStats s = machine.sched_stats();
  EXPECT_EQ(s.regions, 2u);
  EXPECT_EQ(s.fibers, 8u);
  EXPECT_GE(s.workers, 1u);
  EXPECT_GE(s.switches, 8u);
}

TEST(SchedMachineTest, RejectsUnknownMode) {
  // Fibers are the only execution model; the retired thread-per-PE mode is
  // rejected like any other unknown name.
  for (const char* mode : {"green-threads", "threads"}) {
    MachineConfig cfg = small_machine(2);
    cfg.sched.mode = mode;
    Machine machine(cfg);
    EXPECT_THROW(machine.run([](PeContext&) {}), Error) << mode;
  }
}

TEST(SchedMachineTest, CurrentPeContextResolvesThroughFibers) {
  Machine machine(small_machine(4));
  EXPECT_EQ(current_pe_context(), nullptr);
  std::atomic<int> matched{0};
  machine.run([&](PeContext& pe) {
    if (current_pe_context() == &pe) matched.fetch_add(1);
    FiberScheduler::yield();  // survive a scheduling boundary
    if (current_pe_context() == &pe) matched.fetch_add(1);
  });
  EXPECT_EQ(matched.load(), 8);
  EXPECT_EQ(current_pe_context(), nullptr);
}

}  // namespace
}  // namespace xbgas
