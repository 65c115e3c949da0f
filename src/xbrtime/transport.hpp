#pragma once

// Shared transport plumbing for every bounded-retry loop in the xbrtime
// layer (rma put/get, remote AMO, write-combiner flush): the local-side and
// issue costs a transfer charges, the per-site fault and retry accounting,
// and the failure path.
//
// The failure path has two pieces:
//
//  * link_attempt_status — the per-attempt consult of the scripted
//    link/partition fault plan (LinkFaults), evaluated against the issuing
//    PE's modeled clock plus its locally-accumulated attempt cycles, so
//    fault placement is bit-identical across runs. Counts and traces the
//    observation.
//
//  * throw_transfer_failed — the single terminal throw site that used to be
//    hand-rolled per loop. It attaches the structured facts (target rank,
//    site, attempts) to RmaRetriesExhaustedError, and when the retries died
//    against a link the plan has scripted *down* it escalates: the peer is
//    not lossy but unreachable, so it records the suspect in the recovery
//    roster, poisons the currently-registered barriers (pulling every
//    blocked PE into the same agree -> shrink recovery a death triggers),
//    and throws the typed PeUnreachableError instead.

#include <cstddef>
#include <cstdint>
#include <string>

#include "fault/injector.hpp"
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

/// Count one retry: the counter, the trace event, and the backoff charge
/// (backoff_cycles in fault/config.hpp — saturating, monotone in attempt).
/// Returns the backoff cycles.
std::uint64_t note_retry(PeContext& ctx, FaultInjector& fault, int pe,
                         int attempt);

/// Record the kFaultInject trace event of one injected fault at `site`.
void note_fault(PeContext& ctx, int pe, FaultSite site, int attempt);

/// Consult the link plan for one transfer attempt from `ctx.rank()` to
/// `target_pe` at modeled time `now` (clock + accumulated attempt cycles).
/// kDown / kDegraded observations bump fault.injected.link_* counters and
/// record a kFaultInject trace event. Callers must gate on
/// `!network().link_faults().empty()` to keep the fault-free path one branch.
LinkStatus link_attempt_status(PeContext& ctx, int target_pe,
                               std::uint64_t now, int attempt);

/// Terminal failure of a bounded-retry transfer loop. `site` is the
/// transport stage that exhausted ("olb", "drop", "checksum", "amo_drop",
/// "wc_flush", "link_down"). The caller must have advanced the PE clock
/// already. Throws PeUnreachableError when the direct link to `target_pe`
/// is down at the current modeled time (after recording the suspect and
/// poisoning registered barriers), RmaRetriesExhaustedError otherwise.
[[noreturn]] void throw_transfer_failed(PeContext& ctx, int target_pe,
                                        const char* site, int attempts,
                                        const std::string& what);

}  // namespace detail
}  // namespace xbgas
