// Golden modeled behaviour of the remote transport.
//
// Every remote operation — put and get in each of their forms, both AMOs
// and the write-combiner flush — runs one bounded-retry attempt loop. This
// test pins what that loop charges, counts, traces and lands under fifteen
// fault plans: no faults; drops; delays; OLB faults; bit-flips with and
// without checksums; AMO drops and delays; all of them mixed; exhaustion by
// drop, by OLB fault, by checksum and by AMO drop; a degraded link; a down
// link that heals; and a down link that escalates to PeUnreachableError.
//
// Four PEs each run every remote entry point six times against their right
// neighbour: contiguous and strided xbr_put / xbr_get, the _nb forms with
// xbr_wait, the _nbi forms with xbr_wait_req, the word-atomic forms, both
// AMOs, a capacity-4 write-combined burst and its flush, and a local put.
// The trail digest covers each PE's clock after every operation, each AMO's
// fetched value, each caught RmaRetriesExhaustedError's type, site(),
// attempts() and target (and link endpoints when unreachable), the landed
// data, and every trace event; the counter digest covers the modeled
// counters. Both 1 and 4 workers must reproduce the same digests. Every
// exhaustion message must also say "retries exhausted".

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/errors.hpp"
#include "support/modeled_counters.hpp"
#include "xbrtime/nbi.hpp"
#include "xbrtime/wc.hpp"

namespace xbgas {
namespace {

constexpr int kPes = 4;
constexpr int kRounds = 6;
constexpr std::size_t kSlot = 32;    ///< words per operation slot
constexpr std::size_t kElems = 16;   ///< contiguous transfer length
constexpr std::size_t kStrided = 8;  ///< strided transfer length
constexpr int kStride = 3;
constexpr std::size_t kWcPuts = 6;   ///< one-word puts per combined burst
/// Put slots per round: put, strided, nb, nbi, atomic, wc and local.
constexpr std::size_t kPutSlots = 7;
/// Get slots per round: get, strided, nb, nbi, atomic and atomic nbi.
constexpr std::size_t kGetSlots = 6;
constexpr std::size_t kLandWords = kRounds * kPutSlots * kSlot;
constexpr std::size_t kMineWords = kRounds * kGetSlots * kSlot;
constexpr std::size_t kSrcWords = kSlot + kRounds;

struct Plan {
  const char* name;
  FaultConfig fault;
};

FaultConfig probabilities(std::uint64_t seed, double drop, double delay,
                          double olb, double bitflip, bool checksum,
                          double amo_drop, double amo_delay) {
  FaultConfig fc;
  fc.seed = seed;
  fc.rma_drop_prob = drop;
  fc.rma_delay_prob = delay;
  fc.olb_fault_prob = olb;
  fc.rma_bitflip_prob = bitflip;
  fc.verify_checksum = checksum;
  fc.amo_drop_prob = amo_drop;
  fc.amo_delay_prob = amo_delay;
  return fc;
}

FaultConfig exhausting(FaultConfig fc) {
  fc.max_rma_retries = 2;
  return fc;
}

/// Link (0, 1) — crossed only by PE 0's traffic to its neighbour — enters
/// `mode` at cycle `at` and heals at `heal_at` (0: never).
FaultConfig link_plan(LinkFaultMode mode, std::uint64_t at,
                      std::uint64_t heal_at) {
  FaultConfig fc;
  LinkSpec l;
  l.a = 0;
  l.b = 1;
  l.mode = mode;
  l.at = at;
  l.heal_at = heal_at;
  fc.links.push_back(l);
  fc.degraded_alpha_cycles = 40;
  return fc;
}

const std::vector<Plan>& plans() {
  static const std::vector<Plan> all = {
      {"none", FaultConfig{}},
      {"drop", probabilities(11, 0.25, 0, 0, 0, false, 0, 0)},
      {"delay", probabilities(12, 0, 0.3, 0, 0, false, 0, 0)},
      {"olb", probabilities(13, 0, 0, 0.25, 0, false, 0, 0)},
      {"bitflip", probabilities(14, 0, 0, 0, 0.3, false, 0, 0)},
      {"bitflip_checksum", probabilities(15, 0, 0, 0, 0.3, true, 0, 0)},
      {"amo", probabilities(16, 0, 0, 0, 0, false, 0.3, 0.3)},
      {"mixed", probabilities(17, 0.1, 0.1, 0.1, 0.1, true, 0.1, 0.1)},
      {"exhaust_drop",
       exhausting(probabilities(18, 1.0, 0, 0, 0, false, 0, 0))},
      {"exhaust_olb", exhausting(probabilities(19, 0, 0, 1.0, 0, false, 0, 0))},
      {"exhaust_checksum",
       exhausting(probabilities(20, 0, 0, 0, 1.0, true, 0, 0))},
      {"exhaust_amo",
       exhausting(probabilities(21, 0, 0, 0, 0, false, 1.0, 0))},
      {"degraded", link_plan(LinkFaultMode::kDegraded, 1, 0)},
      {"down_heals", link_plan(LinkFaultMode::kDown, 9000, 10500)},
      {"down_escalates", link_plan(LinkFaultMode::kDown, 13000, 0)},
  };
  return all;
}

struct Golden {
  const char* plan;
  std::uint64_t trail;     ///< digest of every PE's trail, data and trace
  std::uint64_t counters;  ///< digest of the modeled counters' JSON
};

// A mismatch means the modeled behaviour of some remote operation moved.
// The failure prints the measured entry; replace a constant only together
// with the reason the behaviour had to move.
constexpr Golden kGolden[] = {
    {"none", 0x4d250ab359e35c50ull, 0xdabcded5058d57efull},
    {"drop", 0x5d23accf0ba66b3bull, 0xe16907d7b3065d69ull},
    {"delay", 0xae9d67bf12b63bf4ull, 0x11ca0b89a9748c17ull},
    {"olb", 0xbdbf1ee03436794cull, 0xc869fac9168cf2eaull},
    {"bitflip", 0x9d635306c19ffb3eull, 0x8d7d1eac9ae47092ull},
    {"bitflip_checksum", 0xd7d337f44966d7c4ull, 0x61f231288beb1781ull},
    {"amo", 0x96c628d0a563b015ull, 0xb17f33692936f523ull},
    {"mixed", 0x55915a7eb4ce61baull, 0x76190e1a2c1a2c13ull},
    {"exhaust_drop", 0x4f1e54179e68e731ull, 0x23313f2c58185188ull},
    {"exhaust_olb", 0xa7737c04fa54af7dull, 0x88d24e021fc40688ull},
    {"exhaust_checksum", 0x1c9bc484b006b0d1ull, 0x621f11b894561998ull},
    {"exhaust_amo", 0x82b4f30c89917dfaull, 0x7dab17cf7fa293daull},
    {"degraded", 0x633b6f01ebb9c5b3ull, 0x1e24ab52ec6c5891ull},
    {"down_heals", 0x58cc3d04aa014c71ull, 0xd2eacf9ccaf9ef96ull},
    {"down_escalates", 0x24f296ddb41c084cull, 0xa8a215985148a8e2ull},
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

struct PeRecord {
  Digest trail;
  const std::uint64_t* land = nullptr;  ///< this PE's symmetric blocks
  const std::uint64_t* mine = nullptr;
  const std::uint64_t* counter = nullptr;
  std::vector<std::uint64_t> data;  ///< their final words, copied once
  bool fenced = false;
};

void copy_data(PeRecord& rec) {
  rec.data.assign(rec.land, rec.land + kLandWords);
  rec.data.insert(rec.data.end(), rec.mine, rec.mine + kMineWords);
  rec.data.insert(rec.data.end(), rec.counter, rec.counter + 2);
}

void note_failure(Digest& trail, const RmaRetriesExhaustedError& e) {
  // The message is free text, outside the digest, but every cause says so.
  const std::string what = e.what();
  EXPECT_NE(what.find("retries exhausted"), std::string::npos) << what;
  const auto* unreachable = dynamic_cast<const PeUnreachableError*>(&e);
  trail.add(unreachable != nullptr ? 2 : 1);
  trail.add(e.site());
  trail.add(static_cast<std::uint64_t>(e.attempts()));
  trail.add(static_cast<std::uint64_t>(e.target_rank()));
  if (unreachable != nullptr) {
    trail.add(static_cast<std::uint64_t>(unreachable->link_a()));
    trail.add(static_cast<std::uint64_t>(unreachable->link_b()));
  }
}

/// Run one operation, record a retries-exhausted failure, then the clock.
template <class Op>
void step(PeContext& pe, Digest& trail, Op&& op) {
  try {
    op();
  } catch (const RmaRetriesExhaustedError& e) {
    note_failure(trail, e);
  }
  trail.add(pe.clock().cycles());
}

void run_round(PeContext& pe, PeRecord& rec, int round, std::uint64_t* land,
               std::uint64_t* mine, std::uint64_t* src,
               std::uint64_t* counter) {
  const int me = pe.rank();
  const int peer = (me + 1) % pe.n_pes();
  const auto r = static_cast<std::size_t>(round);
  const auto put_slot = [&](std::size_t k) {
    return land + (r * kPutSlots + k) * kSlot;
  };
  const auto get_slot = [&](std::size_t k) {
    return mine + (r * kGetSlots + k) * kSlot;
  };
  const std::uint64_t* from = src + r;
  std::uint64_t out[kSlot];
  for (std::size_t i = 0; i < kSlot; ++i) {
    out[i] = (static_cast<std::uint64_t>(me) << 32) + r * 1000 + i + 1;
  }
  Digest& t = rec.trail;

  step(pe, t, [&] { xbr_put(put_slot(0), out, kElems, 1, peer); });
  step(pe, t, [&] { xbr_put(put_slot(1), out, kStrided, kStride, peer); });
  step(pe, t, [&] { xbr_get(get_slot(0), from, kElems, 1, peer); });
  step(pe, t, [&] { xbr_get(get_slot(1), from, kStrided, kStride, peer); });
  step(pe, t, [&] {
    xbr_put_nb(put_slot(2), out, kElems, 1, peer);
    xbr_wait();
  });
  step(pe, t, [&] {
    xbr_get_nb(get_slot(2), from, kElems, 1, peer);
    xbr_wait();
  });
  step(pe, t, [&] {
    xbr_wait_req(xbr_put_nbi(put_slot(3), out, kElems, 1, peer));
  });
  step(pe, t, [&] {
    xbr_wait_req(xbr_get_nbi(get_slot(3), from, kElems, 1, peer));
  });
  step(pe, t, [&] { xbr_put_atomic(put_slot(4), out, kElems, 1, peer); });
  step(pe, t, [&] { xbr_get_atomic(get_slot(4), from, kElems, 1, peer); });
  step(pe, t, [&] {
    xbr_wait_req(xbr_get_atomic_nbi(get_slot(5), from, kElems, 1, peer));
  });
  step(pe, t, [&] {
    t.add(xbr_amo_add<std::uint64_t>(&counter[0], r + 1, peer));
  });
  step(pe, t, [&] {
    t.add(xbr_amo_xor<std::uint64_t>(&counter[1], out[round], peer));
  });

  xbr_wc_enable(/*threshold_bytes=*/64, /*capacity_entries=*/4);
  for (std::size_t j = 0; j < kWcPuts; ++j) {
    step(pe, t, [&] { xbr_put_wc(put_slot(5) + j, out + j, 1, 1, peer); });
  }
  step(pe, t, [&] { xbr_wc_flush(); });
  xbr_wc_disable();

  step(pe, t, [&] { xbr_put(put_slot(6), out, kElems, 1, me); });
}

std::uint64_t* alloc_words(std::size_t n) {
  return static_cast<std::uint64_t*>(xbrtime_malloc(n * sizeof(std::uint64_t)));
}

void run_pe(PeContext& pe, PeRecord& rec) {
  xbrtime_init();
  std::uint64_t* land = alloc_words(kLandWords);
  std::uint64_t* mine = alloc_words(kMineWords);
  std::uint64_t* src = alloc_words(kSrcWords);
  std::uint64_t* counter = alloc_words(2);
  std::fill(land, land + kLandWords, 0);
  std::fill(mine, mine + kMineWords, 0);
  for (std::size_t i = 0; i < kSrcWords; ++i) {
    src[i] = static_cast<std::uint64_t>(pe.rank()) * 7919 + i * 31 + 5;
  }
  counter[0] = 0;
  counter[1] = 0;
  rec.land = land;
  rec.mine = mine;
  rec.counter = counter;
  xbrtime_barrier();

  for (int round = 0; round < kRounds; ++round) {
    run_round(pe, rec, round, land, mine, src, counter);
  }

  // A down link that escalated poisoned the world barrier: every PE then
  // unwinds here, and the test copies the landed data after the region.
  try {
    xbrtime_barrier();
  } catch (const PeFailedError&) {
    return;
  }
  rec.fenced = true;
  copy_data(rec);
  xbrtime_free(counter);
  xbrtime_free(src);
  xbrtime_free(mine);
  xbrtime_free(land);
  xbrtime_close();
}

void add_trace(Digest& d, const EventRing* ring) {
  ASSERT_NE(ring, nullptr) << "the golden run records a trace";
  for (const TraceEvent& e : ring->snapshot()) {
    d.add(e.cycles);
    d.add(e.a);
    d.add(e.b);
    d.add(static_cast<std::uint64_t>(e.kind));
    d.add(static_cast<std::uint64_t>(e.target_pe));
  }
}

struct Outcome {
  std::uint64_t trail = 0;
  std::uint64_t counters = 0;
};

Outcome run_plan(const Plan& plan, int workers) {
  MachineConfig config;
  config.n_pes = kPes;
  config.layout =
      MemoryLayout{.private_bytes = 64 * 1024, .shared_bytes = 512 * 1024};
  config.fault = plan.fault;
  config.trace.enabled = true;
  config.trace.ring_capacity = std::size_t{1} << 14;
  config.sched.workers = workers;
  Machine machine(config);
  std::vector<PeRecord> records(kPes);
  machine.run([&](PeContext& pe) {
    run_pe(pe, records[static_cast<std::size_t>(pe.rank())]);
  });

  Digest trail;
  for (int r = 0; r < kPes; ++r) {
    PeRecord& rec = records[static_cast<std::size_t>(r)];
    if (!rec.fenced) copy_data(rec);
    trail.add(rec.trail.value());
    trail.add(rec.fenced ? 1 : 0);
    trail.add(machine.pe(r).clock().cycles());
    for (const std::uint64_t w : rec.data) trail.add(w);
    add_trace(trail, machine.tracer().ring(r));
  }
  Digest counters;
  counters.add(testing::modeled_counters(machine).json());
  return Outcome{trail.value(), counters.value()};
}

class TransportGoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TransportGoldenTest, ModeledBehaviourMatchesGolden) {
  const Plan& plan = plans()[GetParam()];
  const Golden* golden = nullptr;
  for (const Golden& g : kGolden) {
    if (std::string(g.plan) == plan.name) golden = &g;
  }
  for (const int workers : {1, 4}) {
    const Outcome got = run_plan(plan, workers);
    const bool match = golden != nullptr && got.trail == golden->trail &&
                       got.counters == golden->counters;
    EXPECT_TRUE(match) << "workers=" << workers << "; measured entry:\n"
                       << "    {\"" << plan.name << "\", 0x" << std::hex
                       << got.trail << "ull, 0x" << got.counters << "ull},";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, TransportGoldenTest, ::testing::Range<std::size_t>(0, 15),
    [](const ::testing::TestParamInfo<std::size_t>& p) {
      return std::string(plans()[p.param].name);
    });

}  // namespace
}  // namespace xbgas
