#pragma once

// FaultConfig — the deterministic fault-injection plan for one Machine.
//
// The paper's pitch (§3.1) is that xBGAS remote load/stores bypass the whole
// protocol stack; the flip side is that the runtime inherits none of the
// stack's fault tolerance. This config describes, up front and seeded, every
// fault the simulated fabric may inject: transient remote-transfer drops,
// extra wire delay, payload bit-flips, OLB translation faults, and scripted
// PE crashes at the k-th barrier or k-th RMA of a chosen rank.
//
// Determinism contract: all probabilistic draws come from per-PE, per-site
// RNG streams keyed on (seed, rank, site) — see FaultInjector — so a given
// (config, program, PE count) produces bit-identical fault placement on
// every run, independent of host thread scheduling. Identical seeds replay
// identical faults; that is what makes failure paths testable.

#include <cstdint>
#include <vector>

namespace xbgas {

/// Where a scripted PE kill fires (KillSpec in FaultConfig::kills).
enum class KillSite : std::uint8_t {
  kNone,     ///< no scripted kill
  kBarrier,  ///< at the victim's k-th barrier arrival
  kRma,      ///< at the victim's k-th remote RMA issue
  kAgree,    ///< at the victim's k-th xbr_agree protocol step
  kAmo,      ///< at the victim's k-th remote AMO issue
};

/// One scripted PE crash: `rank` dies at its `at`-th trigger of `site`.
/// Trigger counts are per (rank, site) and 1-based; every site a rank has a
/// kill scheduled at counts all of that rank's triggers there, so two kills
/// on different ranks (or different sites) fire independently — the
/// substrate the multi-failure recovery tests are built on.
struct KillSpec {
  int rank = -1;
  KillSite site = KillSite::kNone;
  std::uint64_t at = 1;
};

/// How a scripted link fault degrades the pair path it names.
enum class LinkFaultMode : std::uint8_t {
  kDown,      ///< every transfer across the link is dropped (permanently)
  kDegraded,  ///< transfers still land but pay extra alpha/beta cycles
};

/// One scripted persistent link fault: the undirected pair path (a, b)
/// enters `mode` once either endpoint's modeled clock reaches `at` cycles,
/// and (optionally) heals at `heal_at`. Unlike the probabilistic transient
/// faults above, link faults are *persistent and scripted*: they need no RNG
/// stream, they are evaluated against the issuing PE's deterministic
/// SimClock, and a down link keeps dropping until it heals — that is what
/// turns bounded retries into an unreachable-peer verdict.
struct LinkSpec {
  int a = -1;
  int b = -1;
  LinkFaultMode mode = LinkFaultMode::kDown;
  std::uint64_t at = 1;       ///< modeled cycle the fault activates (>= 1)
  std::uint64_t heal_at = 0;  ///< modeled cycle it heals; 0 = never
};

/// One scripted 2-way network partition: once a member PE's modeled clock
/// reaches `at`, every link between group A = [lo, hi] and its complement is
/// down (and heals together at `heal_at`, if set). Sugar for |A| * |B|
/// LinkSpecs; expressed separately so a 64-PE split is one CLI token and one
/// config entry, not a thousand.
struct PartitionSpec {
  int lo = -1;                ///< group A = world ranks [lo, hi] inclusive
  int hi = -1;
  std::uint64_t at = 1;       ///< modeled cycle the partition activates
  std::uint64_t heal_at = 0;  ///< modeled cycle it heals; 0 = never
};

struct FaultConfig {
  /// Master seed for every injection stream. Two runs with the same seed
  /// (and same program) inject faults at identical points.
  std::uint64_t seed = 0;

  // -- Probabilistic transient faults (per remote RMA attempt) --
  double rma_drop_prob = 0.0;     ///< transfer attempt dropped in flight
  double rma_delay_prob = 0.0;    ///< transfer delivered late
  double rma_bitflip_prob = 0.0;  ///< one payload bit flipped in flight
  double olb_fault_prob = 0.0;    ///< OLB translation transiently faults

  // -- Probabilistic transient faults (per remote AMO attempt) --
  // Remote atomics ride the same fabric as RMA transfers but skip the
  // payload path (the RMW happens at the target), so they have their own
  // drop/delay sites: a dropped AMO is retried with the same backoff as a
  // dropped transfer, a delayed one charges delay_cycles. Bit-flips do not
  // apply — the operand travels in the request header, which the drop site
  // already models losing wholesale.
  double amo_drop_prob = 0.0;   ///< remote RMW request dropped in flight
  double amo_delay_prob = 0.0;  ///< remote RMW delivered late

  /// Extra modeled cycles charged when a delay fault fires.
  std::uint64_t delay_cycles = 500;

  // -- Resilience knobs --
  /// Max re-transmissions after the first attempt of a remote transfer.
  /// Retries are charged to the SimClock with exponential backoff, so
  /// resilience has a measurable modeled-time cost.
  int max_rma_retries = 6;
  /// First retry waits this long; attempt i waits base << i (capped).
  std::uint64_t backoff_base_cycles = 64;
  /// Verify a checksum over the payload after every remote transfer and
  /// treat a mismatch (an injected bit-flip) as a transient failure to
  /// retry. Off by default: checksums model an optional software guard the
  /// paper's raw load/store path does not pay for.
  bool verify_checksum = false;
  /// Host-time watchdog for every ClockSyncBarrier (milliseconds). When a
  /// participant waits longer than this, the barrier is poisoned and every
  /// waiter throws BarrierTimeoutError naming the missing ranks instead of
  /// hanging forever. 0 disables the watchdog.
  std::uint64_t barrier_timeout_ms = 0;
  /// Host-time watchdog for xbr_agree decisions (milliseconds). An agreement
  /// can stall independently of any barrier (a participant may die between
  /// contributing and deciding), so it gets its own budget instead of
  /// borrowing the barrier watchdog's. 0 keeps the agreement board's 60 s
  /// safety net (RecoveryState::await_decision).
  std::uint64_t agree_timeout_ms = 0;

  // -- Scripted PE crashes --
  /// Scripted kills, any number of victims/sites (--fault-kill accepts a
  /// comma-separated list). The recovery acceptance scenario — two ranks
  /// dying at distinct points of a 12-PE run — is expressed here.
  std::vector<KillSpec> kills;

  // -- Scripted persistent link / partition faults --
  /// Individual link faults (--fault-link "A-B:MODE@AT[@HEAL]", comma list).
  std::vector<LinkSpec> links;
  /// 2-way partitions (--fault-partition "LO-HI@AT[@HEAL]", comma list).
  std::vector<PartitionSpec> partitions;
  /// A degraded link multiplies its serialization (beta) term by this
  /// factor (--fault-link-beta); must be >= 1.
  double degraded_beta_factor = 4.0;
  /// Extra per-attempt latency (alpha) a degraded link charges, in modeled
  /// cycles (--fault-link-alpha).
  std::uint64_t degraded_alpha_cycles = 0;

  /// True when any injection can ever fire (the hot paths consult this
  /// before touching the injector).
  bool any_faults() const {
    return rma_drop_prob > 0.0 || rma_delay_prob > 0.0 ||
           rma_bitflip_prob > 0.0 || olb_fault_prob > 0.0 ||
           amo_drop_prob > 0.0 || amo_delay_prob > 0.0 ||
           !kills.empty() ||
           !links.empty() || !partitions.empty();
  }
};

/// Validate `config` against a machine of `n_pes` PEs; throws
/// FaultConfigError (fault/errors.hpp) describing the first bad parameter.
/// Called by the FaultInjector constructor, i.e. at Machine construction —
/// a bad fault plan is rejected before any PE thread runs.
void validate_fault_config(const FaultConfig& config, int n_pes);

/// Exponential backoff charged before retry attempt `attempt` (1-based):
/// base << (attempt-1), saturating at 2^63 cycles — a large configured base
/// must clamp, not wrap, so the charged backoff stays monotone in `attempt`.
inline std::uint64_t backoff_cycles(const FaultConfig& fc, int attempt) {
  constexpr std::uint64_t kMax = std::uint64_t{1} << 63;
  const int shift = attempt > 1 ? (attempt - 1 < 16 ? attempt - 1 : 16) : 0;
  const std::uint64_t base = fc.backoff_base_cycles;
  if (base >= (kMax >> shift)) return kMax;
  return base << shift;
}

}  // namespace xbgas
