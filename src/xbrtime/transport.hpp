#pragma once

// The remote transport every xbrtime operation shares: put and get in all
// their forms, both remote AMOs, and the write-combiner flush run one
// bounded-retry attempt loop, remote_attempts. Each attempt is the paper's
// remote access (§3.2–§3.3) with the fault model folded in, in this order:
//
//   1. the OLB translation of the target's object ID;
//   2. the wire cost and the traffic record (an RMW is a get plus a put);
//   3. the scripted link plan at the clock plus the cycles so far: a down
//      link loses the attempt, a degraded one adds its penalty (twice for
//      an RMW);
//   4. the injected faults, each counted and traced at its own site: an
//      OLB fault then a drop for a put or get, an AMO drop for an RMW, then
//      the matching delay;
//   5. the caller's `land` step, which moves the payload and may reject it
//      (a checksum mismatch).
//
// A lost attempt counts a retry and charges its backoff; the last one
// advances the clock and throws RmaRetriesExhaustedError with the
// structured facts (target rank, site, attempts). When the retries died
// against a link the plan has scripted *down* it escalates: the peer is not
// lossy but unreachable, so the transport records the suspect in the
// recovery roster, poisons the currently-registered barriers (pulling every
// blocked PE into the same agree -> shrink recovery a death triggers), and
// throws the typed PeUnreachableError instead.
//
// Callers keep only what comes before the first attempt (poll point,
// scripted-kill hook, issue trace, local-side cost, XbrSan) and after the
// last (completion).

#include <cstddef>
#include <cstdint>

#include "machine/machine.hpp"
#include "net/fabric.hpp"

namespace xbgas {
namespace detail {

/// Cycles for touching [ptr, ptr+bytes) in this PE's local memory. Pointers
/// outside the arena (ordinary host heap/stack buffers used in tests and
/// examples) are charged a flat L1-hit cost — they model registers/private
/// scratch rather than simulated DRAM. Containment goes through
/// MemoryArena::contains (integer-domain, overflow-safe): most pointers
/// probed here are *not* arena pointers, where raw relational comparison is
/// unspecified behavior and `b + bytes` can wrap.
std::uint64_t local_access_cycles(PeContext& ctx, const void* ptr,
                                  std::size_t bytes);

/// Per-element issue cost, honouring the unrolling threshold (§3.3).
std::uint64_t issue_cycles(const NetCostParams& p, std::size_t nelems);

/// What one attempt moves over the wire.
enum class Wire : std::uint8_t {
  kPut,  ///< one-way store
  kGet,  ///< round-trip load
  kRmw,  ///< remote atomic: a get plus a put, with its own fault sites
};

/// Attempts a remote operation may make: 1 + FaultConfig::max_rma_retries.
int max_attempts(PeContext& ctx);

/// Steps 1–4 of one attempt of `bytes` from `ctx.rank()` to `pe`, charged
/// to `cycles`. Returns nullptr when the attempt survives to landing, else
/// the site that lost it ("link_down", "olb", "drop", "amo_drop").
const char* wire_attempt(PeContext& ctx, int pe, Wire wire, std::size_t bytes,
                         int attempt, std::uint64_t& cycles);

/// Count the retry after lost `attempt` (rma.retries, or amo.retries for an
/// RMW), record kRmaRetry, and return its backoff (backoff_cycles in
/// fault/config.hpp — saturating, monotone in attempt).
std::uint64_t retry_backoff(PeContext& ctx, int pe, Wire wire, int attempt);

/// The last attempt was lost to `cause`: advance the clock by `cycles` and
/// throw at `site` ("olb", "drop", "checksum", "amo_drop", "link_down", or
/// the caller's own, "wc_flush"), with a message naming `fn`, the cause, the
/// attempts, the endpoints and the bytes. Throws PeUnreachableError when
/// the direct link to `pe` is down at the advanced clock (after recording
/// the suspect and poisoning registered barriers), RmaRetriesExhaustedError
/// otherwise.
[[noreturn]] void attempts_exhausted(PeContext& ctx, int pe, const char* fn,
                                     const char* site, const char* cause,
                                     int attempts, std::size_t bytes,
                                     std::uint64_t cycles);

/// The bounded-retry loop under every remote operation. Each attempt runs
/// wire_attempt, then `land(attempt, cycles)`, which moves the payload and
/// returns false to reject it (site "checksum"). A lost attempt retries
/// with backoff; the last ends in attempts_exhausted at `site`, or at the
/// cause's own site when `site` is null. On return `cycles` holds every
/// attempt's cost; the caller charges it.
template <class Land>
void remote_attempts(PeContext& ctx, int pe, Wire wire, std::size_t bytes,
                     std::uint64_t& cycles, const char* fn, const char* site,
                     Land&& land) {
  const int last = max_attempts(ctx);
  for (int attempt = 1;; ++attempt) {
    const char* lost = wire_attempt(ctx, pe, wire, bytes, attempt, cycles);
    if (lost == nullptr) {
      if (land(attempt, cycles)) return;
      lost = "checksum";
    }
    if (attempt >= last) {
      attempts_exhausted(ctx, pe, fn, site != nullptr ? site : lost, lost,
                         attempt, bytes, cycles);
    }
    cycles += retry_backoff(ctx, pe, wire, attempt);
  }
}

}  // namespace detail
}  // namespace xbgas
