// FaultInjector unit tests: deterministic replay, stream independence,
// scripted kills, payload corruption, and the checksum helpers.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fault/checksum.hpp"
#include "fault/injector.hpp"

namespace xbgas {
namespace {

FaultConfig active_config(std::uint64_t seed) {
  FaultConfig fc;
  fc.seed = seed;
  fc.rma_drop_prob = 0.5;
  fc.rma_delay_prob = 0.5;
  fc.rma_bitflip_prob = 0.5;
  fc.olb_fault_prob = 0.5;
  return fc;
}

TEST(BackoffTest, GrowsExponentiallyFromBase) {
  FaultConfig fc;
  fc.backoff_base_cycles = 64;
  EXPECT_EQ(backoff_cycles(fc, 1), 64u);
  EXPECT_EQ(backoff_cycles(fc, 2), 128u);
  EXPECT_EQ(backoff_cycles(fc, 3), 256u);
  EXPECT_EQ(backoff_cycles(fc, 11), 64u << 10);
}

TEST(BackoffTest, SaturatesInsteadOfWrapping) {
  // Regression: `base << (attempt - 1)` overflowed for a large configured
  // base — a shifted-out wait wrapped to a tiny (or zero) backoff exactly
  // when the system was most congested. The fix clamps at 2^63.
  constexpr std::uint64_t kMax = std::uint64_t{1} << 63;
  FaultConfig fc;
  fc.backoff_base_cycles = std::uint64_t{1} << 60;
  EXPECT_EQ(backoff_cycles(fc, 1), std::uint64_t{1} << 60);
  EXPECT_EQ(backoff_cycles(fc, 4), kMax);   // 1<<63: at the cap
  EXPECT_EQ(backoff_cycles(fc, 5), kMax);   // would wrap without the clamp
  EXPECT_EQ(backoff_cycles(fc, 60), kMax);  // shift itself is also clamped
}

TEST(BackoffTest, MonotoneNonDecreasingInAttempt) {
  for (const std::uint64_t base :
       {std::uint64_t{1}, std::uint64_t{64}, std::uint64_t{1} << 40,
        std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    FaultConfig fc;
    fc.backoff_base_cycles = base;
    std::uint64_t prev = 0;
    for (int attempt = 1; attempt <= 70; ++attempt) {
      const std::uint64_t b = backoff_cycles(fc, attempt);
      EXPECT_GE(b, prev) << "base=" << base << " attempt=" << attempt;
      prev = b;
    }
  }
}

TEST(FaultInjectorTest, DisabledByDefault) {
  FaultInjector inj(FaultConfig{}, 4);
  EXPECT_FALSE(inj.enabled());
  // With zero probability every draw is false and advances nothing.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.draw_rma_drop(0));
    EXPECT_FALSE(inj.draw_olb_fault(3));
  }
}

TEST(FaultInjectorTest, SameSeedSameDecisionSequence) {
  FaultInjector a(active_config(42), 4);
  FaultInjector b(active_config(42), 4);
  for (int i = 0; i < 1000; ++i) {
    const int rank = i % 4;
    EXPECT_EQ(a.draw_rma_drop(rank), b.draw_rma_drop(rank));
    EXPECT_EQ(a.draw_rma_delay(rank), b.draw_rma_delay(rank));
    EXPECT_EQ(a.draw_rma_bitflip(rank), b.draw_rma_bitflip(rank));
    EXPECT_EQ(a.draw_olb_fault(rank), b.draw_olb_fault(rank));
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector a(active_config(1), 1);
  FaultInjector b(active_config(2), 1);
  int differing = 0;
  for (int i = 0; i < 256; ++i) {
    differing += a.draw_rma_drop(0) != b.draw_rma_drop(0) ? 1 : 0;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, RankStreamsAreIndependent) {
  // Rank 1's decision sequence must not depend on how often rank 0 draws —
  // that is what makes placement independent of host thread interleaving.
  FaultInjector quiet(active_config(7), 2);
  std::vector<bool> expected;
  expected.reserve(200);
  for (int i = 0; i < 200; ++i) expected.push_back(quiet.draw_rma_drop(1));

  FaultInjector noisy(active_config(7), 2);
  std::vector<bool> got;
  got.reserve(200);
  for (int i = 0; i < 200; ++i) {
    for (int j = 0; j <= i % 3; ++j) (void)noisy.draw_rma_drop(0);
    (void)noisy.draw_olb_fault(1);  // different site: separate stream
    got.push_back(noisy.draw_rma_drop(1));
  }
  EXPECT_EQ(expected, got);
}

TEST(FaultInjectorTest, ScriptedKillAtKthBarrier) {
  FaultConfig fc;
  fc.kills.push_back(KillSpec{1, KillSite::kBarrier, 3});
  FaultInjector inj(fc, 4);
  EXPECT_TRUE(inj.enabled());

  // Non-victims never trigger, no matter how many arrivals.
  for (int i = 0; i < 10; ++i) {
    EXPECT_NO_THROW(inj.on_barrier_arrival(0));
    EXPECT_NO_THROW(inj.on_barrier_arrival(2));
  }
  // The victim survives arrivals 1 and 2, dies at 3, and the trigger does
  // not re-fire afterwards.
  EXPECT_NO_THROW(inj.on_barrier_arrival(1));
  EXPECT_NO_THROW(inj.on_barrier_arrival(1));
  try {
    inj.on_barrier_arrival(1);
    FAIL() << "expected PeKilledError at the 3rd barrier arrival";
  } catch (const PeKilledError& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_NE(std::string(e.what()).find("barrier #3"), std::string::npos);
  }
  EXPECT_NO_THROW(inj.on_barrier_arrival(1));
  EXPECT_EQ(inj.counters().kills.load(), 1u);
  // RMA issues never trigger a barrier-sited kill.
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(inj.on_rma_issue(1));
}

TEST(FaultInjectorTest, ScriptedKillAtKthRma) {
  FaultConfig fc;
  fc.kills.push_back(KillSpec{0, KillSite::kRma, 2});
  FaultInjector inj(fc, 2);
  EXPECT_NO_THROW(inj.on_rma_issue(0));
  EXPECT_THROW(inj.on_rma_issue(0), PeKilledError);
}

TEST(FaultInjectorTest, KillRankOutOfRangeRejected) {
  FaultConfig fc;
  fc.kills.push_back(KillSpec{4, KillSite::kBarrier, 1});
  EXPECT_THROW(FaultInjector(fc, 4), Error);
}

TEST(FaultInjectorTest, CorruptPayloadFlipsExactlyOneBit) {
  FaultConfig fc = active_config(9);
  FaultInjector inj(fc, 1);
  std::vector<unsigned char> buf(64, 0xA5);
  const std::vector<unsigned char> orig = buf;
  inj.corrupt_payload(0, buf.data(), 8, 8, 1);
  int bits_changed = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>(buf[i] ^ orig[i]);
    while (diff != 0) {
      bits_changed += diff & 1;
      diff = static_cast<unsigned char>(diff >> 1);
    }
  }
  EXPECT_EQ(bits_changed, 1);
}

TEST(FaultInjectorTest, CorruptPayloadRespectsStride) {
  // stride 2: only even-indexed elements move, so only their bytes may flip.
  std::vector<unsigned char> buf(8 * 8, 0);
  FaultInjector inj(active_config(11), 1);
  for (int i = 0; i < 50; ++i) inj.corrupt_payload(0, buf.data(), 8, 4, 2);
  for (std::size_t elem = 0; elem < 8; ++elem) {
    const bool moved = elem % 2 == 0;
    bool touched = false;
    for (std::size_t b = 0; b < 8; ++b) touched |= buf[elem * 8 + b] != 0;
    if (!moved) {
      EXPECT_FALSE(touched) << "gap element " << elem << " corrupted";
    }
  }
}

TEST(FaultInjectorTest, AmoSiteNamesResolve) {
  EXPECT_STREQ(fault_site_name(FaultSite::kAmoDrop), "amo_drop");
  EXPECT_STREQ(fault_site_name(FaultSite::kAmoDelay), "amo_delay");
}

TEST(FaultInjectorTest, AmoDrawsDisabledAtZeroProbability) {
  // active_config leaves the AMO sites at 0.0: remote atomics stay
  // fault-free unless explicitly opted in, even with RMA faults armed.
  FaultInjector inj(active_config(3), 2);
  EXPECT_TRUE(inj.enabled());
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(inj.draw_amo_drop(0));
    EXPECT_FALSE(inj.draw_amo_delay(1));
  }
}

TEST(FaultInjectorTest, AmoDrawsAreDeterministicPerSeed) {
  FaultConfig fc = active_config(21);
  fc.amo_drop_prob = 0.5;
  fc.amo_delay_prob = 0.5;
  FaultInjector a(fc, 4);
  FaultInjector b(fc, 4);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    const int rank = i % 4;
    const bool drop = a.draw_amo_drop(rank);
    EXPECT_EQ(drop, b.draw_amo_drop(rank));
    EXPECT_EQ(a.draw_amo_delay(rank), b.draw_amo_delay(rank));
    fired += drop ? 1 : 0;
  }
  EXPECT_GT(fired, 300);  // p=0.5: the stream actually fires
  EXPECT_LT(fired, 700);
}

TEST(FaultInjectorTest, AmoStreamsIndependentOfRmaStreams) {
  // The AMO sites were appended as new streams; draining RMA draws must not
  // shift an AMO sequence (and, regression-style, the pre-existing RMA
  // mapping must not have moved just because AMO probabilities are set).
  FaultConfig fc = active_config(13);
  fc.amo_drop_prob = 0.5;
  FaultInjector quiet(fc, 2);
  std::vector<bool> expected;
  expected.reserve(200);
  for (int i = 0; i < 200; ++i) expected.push_back(quiet.draw_amo_drop(1));

  FaultInjector noisy(fc, 2);
  std::vector<bool> got;
  got.reserve(200);
  for (int i = 0; i < 200; ++i) {
    for (int j = 0; j <= i % 3; ++j) (void)noisy.draw_rma_drop(1);
    (void)noisy.draw_rma_delay(1);
    (void)noisy.draw_amo_delay(1);  // sibling AMO site: separate stream too
    got.push_back(noisy.draw_amo_drop(1));
  }
  EXPECT_EQ(expected, got);

  FaultConfig rma_only = active_config(13);
  FaultInjector base(rma_only, 2);
  FaultInjector with_amo(fc, 2);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(base.draw_rma_drop(0), with_amo.draw_rma_drop(0));
  }
}

TEST(ChecksumTest, DetectsSingleBitFlip) {
  std::vector<unsigned char> buf(256, 0x3C);
  const std::uint64_t clean = strided_checksum(buf.data(), 8, 32, 1);
  buf[100] ^= 0x10;
  EXPECT_NE(clean, strided_checksum(buf.data(), 8, 32, 1));
}

TEST(ChecksumTest, StridedCoversOnlyMovedBytes) {
  std::vector<unsigned char> buf(8 * 8, 0x11);
  const std::uint64_t clean = strided_checksum(buf.data(), 8, 4, 2);
  buf[8] ^= 0xFF;  // element 1 is a stride gap: not part of the transfer
  EXPECT_EQ(clean, strided_checksum(buf.data(), 8, 4, 2));
  buf[16] ^= 0x01;  // element 2 is moved
  EXPECT_NE(clean, strided_checksum(buf.data(), 8, 4, 2));
}

TEST(ChecksumTest, StridedMatchesContiguousForStrideOne) {
  std::vector<unsigned char> buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 7);
  }
  EXPECT_EQ(strided_checksum(buf.data(), 8, 8, 1), fnv1a(buf.data(), 64));
}

TEST(FaultInjectorTest, ResetCountersKeepsStreamPosition) {
  FaultInjector a(active_config(5), 1);
  FaultInjector b(active_config(5), 1);
  for (int i = 0; i < 100; ++i) (void)a.draw_rma_drop(0);
  for (int i = 0; i < 100; ++i) (void)b.draw_rma_drop(0);
  a.reset_counters();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.draw_rma_drop(0), b.draw_rma_drop(0));
  }
}

}  // namespace
}  // namespace xbgas
