// XbrSan negative + behavioral suite (ISSUE PR 4 tentpole).
//
// The positive guarantee — the shipped collectives run violation-free under
// --xbrsan full — is locked down by the conformance sweep
// (tests/collectives/conformance_test.cpp). This suite proves the opposite
// direction: each violation class is actually *detected*, with the typed
// SanViolationError carrying the right kind, entry point, ranks, and range.
//
// Violating accesses are issued inside the SPMD body and caught there, on
// the issuing PE's own fiber, so each test can assert on the structured
// error fields and then let the region finish cleanly. Where two issuers
// must hit the target in a known order, a host-side std::atomic sequences
// the *PE contexts*; the sanitizer itself only reasons about barriers, so
// the accesses remain concurrent in the simulated-synchronization sense.

#include "san/sanitizer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "collectives/team.hpp"
#include "fault/errors.hpp"
#include "machine/fiber.hpp"
#include "machine/machine.hpp"
#include "trace/collect.hpp"
#include "xbrtime/rma.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {
namespace {

MachineConfig config(int n_pes, SanMode mode) {
  MachineConfig c;
  c.n_pes = n_pes;
  c.layout = MemoryLayout{.private_bytes = 64 * 1024,
                          .shared_bytes = 1024 * 1024};
  c.san.mode = mode;
  return c;
}

/// Spin until `flag` is true — host-side sequencing only. Must park the
/// calling *fiber*, not just the OS thread: with PEs multiplexed over a
/// bounded worker pool, a raw spin could monopolize the worker the
/// flag-setter needs (src/machine/fiber.hpp invariants).
void await(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) {
    FiberScheduler::yield_waiting();
  }
}

TEST(SanBoundsTest, OutOfBoundsPutDetectedWithTypedError) {
  Machine machine(config(2, SanMode::kBounds));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(8 * sizeof(long)));
    xbrtime_barrier();
    if (pe.rank() == 0) {
      std::vector<long> src(32, 7);
      bool caught = false;
      try {
        xbr_put(buf, src.data(), 32, 1, 1);  // 256 B into a 64 B allocation
      } catch (const SanViolationError& e) {
        caught = true;
        EXPECT_EQ(e.kind(), SanViolationKind::kOutOfBounds);
        EXPECT_STREQ(e.fn(), "xbr_put");
        EXPECT_EQ(e.issuing_rank(), 0);
        EXPECT_EQ(e.target_rank(), 1);
        EXPECT_EQ(e.bytes(), 32 * sizeof(long));
        EXPECT_NE(std::string(e.what()).find("XbrSan[out_of_bounds]"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_TRUE(caught);
      // The in-bounds prefix of the same buffer stays writable.
      xbr_put(buf, src.data(), 8, 1, 1);
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  EXPECT_EQ(machine.sanitizer().counters().violations, 1u);
}

TEST(SanBoundsTest, UseAfterFreeGetDetected) {
  Machine machine(config(2, SanMode::kBounds));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    xbrtime_barrier();
    xbrtime_free(buf);
    // One more barrier: free unregisters the block *after* its internal
    // rendezvous (lagging peers may touch it right up to their own free
    // call), so the shadow is only guaranteed dead everywhere once every
    // PE has passed a subsequent synchronization point.
    xbrtime_barrier();
    if (pe.rank() == 0) {
      std::vector<long> landed(16, 0);
      bool caught = false;
      try {
        xbr_get(landed.data(), buf, 16, 1, 1);
      } catch (const SanViolationError& e) {
        caught = true;
        EXPECT_EQ(e.kind(), SanViolationKind::kUseAfterFree);
        EXPECT_STREQ(e.fn(), "xbr_get");
        EXPECT_EQ(e.target_rank(), 1);
        EXPECT_NE(std::string(e.what()).find("use_after_free"),
                  std::string::npos);
      }
      EXPECT_TRUE(caught);
    }
    xbrtime_barrier();
    xbrtime_close();
  });
}

TEST(SanBoundsTest, ReallocatedBlockIsLiveAgain) {
  Machine machine(config(2, SanMode::kBounds));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* a = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    xbrtime_barrier();
    xbrtime_free(a);
    // First-fit hands the same offset back; the freed-history entry must be
    // dropped or this legitimate put would be misdiagnosed as UAF.
    auto* b = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    ASSERT_EQ(a, b);
    xbrtime_barrier();
    if (pe.rank() == 0) {
      const long v = 42;
      xbr_put(b, &v, 1, 1, 1);
    }
    xbrtime_barrier();
    xbrtime_free(b);
    xbrtime_close();
  });
  EXPECT_EQ(machine.sanitizer().counters().violations, 0u);
}

TEST(SanBoundsTest, SpanStraddlingTwoAllocationsDetected) {
  Machine machine(config(2, SanMode::kBounds));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    // First-fit places b directly after a (both 16-aligned sizes).
    auto* a = static_cast<long*>(xbrtime_malloc(8 * sizeof(long)));
    auto* b = static_cast<long*>(xbrtime_malloc(8 * sizeof(long)));
    ASSERT_EQ(reinterpret_cast<std::byte*>(a) + 8 * sizeof(long),
              reinterpret_cast<std::byte*>(b));
    xbrtime_barrier();
    if (pe.rank() == 0) {
      std::vector<long> src(12, 3);
      bool caught = false;
      try {
        xbr_put(a, src.data(), 12, 1, 1);  // runs off a into b
      } catch (const SanViolationError& e) {
        caught = true;
        EXPECT_EQ(e.kind(), SanViolationKind::kStraddle);
        EXPECT_NE(std::string(e.what()).find("straddl"), std::string::npos);
      }
      EXPECT_TRUE(caught);
    }
    xbrtime_barrier();
    xbrtime_free(b);
    xbrtime_free(a);
    xbrtime_close();
  });
}

TEST(SanConflictTest, SameEpochWriteWriteConflictDetected) {
  Machine machine(config(3, SanMode::kFull));
  std::atomic<bool> first_put_done{false};
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    xbrtime_barrier();
    const long v = static_cast<long>(pe.rank());
    if (pe.rank() == 0) {
      xbr_put(buf, &v, 1, 1, 2);
      first_put_done.store(true, std::memory_order_release);
    } else if (pe.rank() == 1) {
      await(first_put_done);  // host ordering only: no barrier between them
      bool caught = false;
      try {
        xbr_put(buf, &v, 1, 1, 2);
      } catch (const SanViolationError& e) {
        caught = true;
        EXPECT_EQ(e.kind(), SanViolationKind::kWriteWriteConflict);
        EXPECT_STREQ(e.fn(), "xbr_put");
        EXPECT_EQ(e.issuing_rank(), 1);
        EXPECT_EQ(e.target_rank(), 2);
        const std::string what = e.what();
        // Both endpoints' context: the prior access's fn and rank.
        EXPECT_NE(what.find("write_write_conflict"), std::string::npos);
        EXPECT_NE(what.find("from PE 0"), std::string::npos) << what;
      }
      EXPECT_TRUE(caught);
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  EXPECT_EQ(machine.sanitizer().counters().violations, 1u);
}

TEST(SanConflictTest, SameEpochReadWriteConflictDetected) {
  Machine machine(config(3, SanMode::kFull));
  std::atomic<bool> put_done{false};
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    xbrtime_barrier();
    if (pe.rank() == 0) {
      const long v = 9;
      xbr_put(buf, &v, 1, 1, 2);
      put_done.store(true, std::memory_order_release);
    } else if (pe.rank() == 1) {
      await(put_done);
      std::vector<long> landed(1, 0);
      bool caught = false;
      try {
        xbr_get(landed.data(), buf, 1, 1, 2);
      } catch (const SanViolationError& e) {
        caught = true;
        EXPECT_EQ(e.kind(), SanViolationKind::kReadWriteConflict);
        EXPECT_STREQ(e.fn(), "xbr_get");
      }
      EXPECT_TRUE(caught);
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
}

TEST(SanConflictTest, ConcurrentReadsDoNotConflict) {
  Machine machine(config(3, SanMode::kFull));
  std::atomic<bool> first_get_done{false};
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    xbrtime_barrier();
    std::vector<long> landed(16, 0);
    if (pe.rank() == 0) {
      xbr_get(landed.data(), buf, 16, 1, 2);
      first_get_done.store(true, std::memory_order_release);
    } else if (pe.rank() == 1) {
      await(first_get_done);
      xbr_get(landed.data(), buf, 16, 1, 2);  // read/read: legitimate
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  EXPECT_EQ(machine.sanitizer().counters().violations, 0u);
}

TEST(SanConflictTest, BarrierOrdersAccessesAcrossEpochs) {
  Machine machine(config(3, SanMode::kFull));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    xbrtime_barrier();
    const long v = static_cast<long>(pe.rank());
    if (pe.rank() == 0) xbr_put(buf, &v, 1, 1, 2);
    xbrtime_barrier();  // epoch boundary: orders the two writes
    if (pe.rank() == 1) xbr_put(buf, &v, 1, 1, 2);
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  EXPECT_EQ(machine.sanitizer().counters().violations, 0u);
}

TEST(SanConflictTest, TeamBarrierOrdersItsMembers) {
  // PE 0 writes, then a {0,1} team barrier, then PE 1 writes the same range:
  // the vector-clock join across the *team* barrier must order the pair —
  // a naive global epoch counter cannot express this.
  Machine machine(config(4, SanMode::kFull));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    xbrtime_barrier();
    const long v = static_cast<long>(pe.rank());
    if (pe.rank() <= 1) {
      if (pe.rank() == 0) xbr_put(buf, &v, 1, 1, 3);
      Team team(/*start=*/0, /*stride=*/1, /*size=*/2);
      team.barrier();
      if (pe.rank() == 1) xbr_put(buf, &v, 1, 1, 3);
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  EXPECT_EQ(machine.sanitizer().counters().violations, 0u);
}

TEST(SanConflictTest, TeamBarrierDoesNotOrderNonMembers) {
  // PE 0 writes, a {1,2} team barrier runs (PE 0 is not a member), then
  // PE 1 writes the same range: still unordered — must be flagged.
  Machine machine(config(4, SanMode::kFull));
  std::atomic<bool> put_done{false};
  std::atomic<bool> violated{false};
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    xbrtime_barrier();
    const long v = static_cast<long>(pe.rank());
    if (pe.rank() == 0) {
      xbr_put(buf, &v, 1, 1, 3);
      put_done.store(true, std::memory_order_release);
    } else if (pe.rank() == 1 || pe.rank() == 2) {
      await(put_done);
      Team team(/*start=*/1, /*stride=*/1, /*size=*/2);
      team.barrier();
      if (pe.rank() == 1) {
        try {
          xbr_put(buf, &v, 1, 1, 3);
        } catch (const SanViolationError& e) {
          EXPECT_EQ(e.kind(), SanViolationKind::kWriteWriteConflict);
          violated.store(true, std::memory_order_release);
        }
      }
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  EXPECT_TRUE(violated.load());
}

TEST(SanConflictTest, AmoAmoPairsAreLegitimate) {
  // The GUPs pattern: many PEs AMO the same word concurrently. Atomic
  // accesses never conflict with each other.
  Machine machine(config(3, SanMode::kFull));
  std::atomic<bool> first_amo_done{false};
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* slot = static_cast<std::uint64_t*>(
        xbrtime_malloc(sizeof(std::uint64_t)));
    *slot = 0;
    xbrtime_barrier();
    if (pe.rank() == 0) {
      xbr_amo_add(slot, std::uint64_t{1}, 2);
      first_amo_done.store(true, std::memory_order_release);
    } else if (pe.rank() == 1) {
      await(first_amo_done);
      xbr_amo_add(slot, std::uint64_t{1}, 2);
    }
    xbrtime_barrier();
    if (pe.rank() == 2) {
      EXPECT_EQ(*slot, 2u);
    }
    xbrtime_barrier();
    xbrtime_free(slot);
    xbrtime_close();
  });
  EXPECT_EQ(machine.sanitizer().counters().violations, 0u);
}

TEST(SanConflictTest, AmoVersusPutConflicts) {
  Machine machine(config(3, SanMode::kFull));
  std::atomic<bool> put_done{false};
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* slot = static_cast<std::uint64_t*>(
        xbrtime_malloc(sizeof(std::uint64_t)));
    xbrtime_barrier();
    if (pe.rank() == 0) {
      const std::uint64_t v = 5;
      xbr_put(slot, &v, 1, 1, 2);
      put_done.store(true, std::memory_order_release);
    } else if (pe.rank() == 1) {
      await(put_done);
      bool caught = false;
      try {
        xbr_amo_add(slot, std::uint64_t{1}, 2);
      } catch (const SanViolationError& e) {
        caught = true;
        EXPECT_EQ(e.kind(), SanViolationKind::kWriteWriteConflict);
        EXPECT_STREQ(e.fn(), "xbr_amo_add");
      }
      EXPECT_TRUE(caught);
    }
    xbrtime_barrier();
    xbrtime_free(slot);
    xbrtime_close();
  });
}

TEST(SanModeTest, OffModeChecksNothing) {
  // The same out-of-bounds program that kBounds rejects runs to completion:
  // off is genuinely off (the acceptance criterion behind the "no measurable
  // slowdown" requirement).
  Machine machine(config(2, SanMode::kOff));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(8 * sizeof(long)));
    auto* pad = static_cast<long*>(xbrtime_malloc(32 * sizeof(long)));
    (void)pad;  // keeps the overrun inside the target's own segment
    xbrtime_barrier();
    if (pe.rank() == 0) {
      std::vector<long> src(32, 7);
      EXPECT_NO_THROW(xbr_put(buf, src.data(), 32, 1, 1));
    }
    xbrtime_barrier();
    xbrtime_free(pad);
    xbrtime_free(buf);
    xbrtime_close();
  });
  const Sanitizer::Counters c = machine.sanitizer().counters();
  EXPECT_EQ(c.bounds_checks, 0u);
  EXPECT_EQ(c.violations, 0u);
}

TEST(SanModeTest, BoundsModeSkipsConflictDetection) {
  Machine machine(config(3, SanMode::kBounds));
  std::atomic<bool> first_put_done{false};
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    xbrtime_barrier();
    const long v = 1;
    if (pe.rank() == 0) {
      xbr_put(buf, &v, 1, 1, 2);
      first_put_done.store(true, std::memory_order_release);
    } else if (pe.rank() == 1) {
      await(first_put_done);
      EXPECT_NO_THROW(xbr_put(buf, &v, 1, 1, 2));  // kBounds: no ledger
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  const Sanitizer::Counters c = machine.sanitizer().counters();
  EXPECT_GT(c.bounds_checks, 0u);
  EXPECT_EQ(c.ledger_records, 0u);
  EXPECT_EQ(c.violations, 0u);
}

TEST(SanModeTest, UncaughtViolationSurfacesAsSpmdRegionError) {
  // Without an in-region handler the violation unwinds the PE, poisons the
  // barriers, and Machine::run reports it — naming the check and the fn.
  Machine machine(config(2, SanMode::kBounds));
  try {
    machine.run([&](PeContext& pe) {
      xbrtime_init();
      auto* buf = static_cast<long*>(xbrtime_malloc(8 * sizeof(long)));
      xbrtime_barrier();
      if (pe.rank() == 0) {
        std::vector<long> src(64, 7);
        xbr_put(buf, src.data(), 64, 1, 1);
      }
      xbrtime_barrier();
      xbrtime_close();
    });
    FAIL() << "expected SpmdRegionError";
  } catch (const SpmdRegionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("XbrSan[out_of_bounds]"), std::string::npos) << what;
    EXPECT_NE(what.find("xbr_put"), std::string::npos) << what;
  }
}

TEST(SanCountersTest, CountersLandInTheRegistry) {
  Machine machine(config(2, SanMode::kFull));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(16 * sizeof(long)));
    xbrtime_barrier();
    if (pe.rank() == 0) {
      std::vector<long> src(16, 1);
      xbr_put(buf, src.data(), 16, 1, 1);
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  const CounterRegistry reg = collect_counters(machine);
  EXPECT_EQ(reg.get("san.enabled").value_or(99), 1u);
  EXPECT_GT(reg.get("san.bounds_checks").value_or(0), 0u);
  EXPECT_GT(reg.get("san.ledger_records").value_or(0), 0u);
  EXPECT_GT(reg.get("san.epochs").value_or(0), 0u);
  EXPECT_EQ(reg.get("san.violations").value_or(99), 0u);
}

TEST(SanCountersTest, EpochAdvancesAtEveryBarrier) {
  Machine machine(config(2, SanMode::kFull));
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    if (pe.rank() == 0) before = machine.sanitizer().epoch(0);
    xbrtime_barrier();
    xbrtime_barrier();
    if (pe.rank() == 0) after = machine.sanitizer().epoch(0);
    xbrtime_close();
  });
  EXPECT_GE(after, before + 2);
}

TEST(SanTraceTest, ViolationEmitsTraceEvent) {
  MachineConfig c = config(2, SanMode::kBounds);
  c.trace.enabled = true;
  Machine machine(c);
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* buf = static_cast<long*>(xbrtime_malloc(8 * sizeof(long)));
    xbrtime_barrier();
    if (pe.rank() == 0) {
      std::vector<long> src(64, 7);
      try {
        xbr_put(buf, src.data(), 64, 1, 1);
      } catch (const SanViolationError&) {
      }
    }
    xbrtime_barrier();
    xbrtime_free(buf);
    xbrtime_close();
  });
  bool saw_violation = false;
  ASSERT_NE(machine.tracer().ring(0), nullptr);
  for (const TraceEvent& ev : machine.tracer().ring(0)->snapshot()) {
    if (ev.kind == EventKind::kSanViolation) {
      saw_violation = true;
      EXPECT_EQ(ev.a, static_cast<std::uint64_t>(
                          SanViolationKind::kOutOfBounds));
      EXPECT_EQ(ev.target_pe, 1);
    }
  }
  EXPECT_TRUE(saw_violation);
}

}  // namespace
}  // namespace xbgas
