#pragma once

// Typed trace events — the vocabulary of the observability layer.
//
// Every event is a fixed-size POD stamped with the issuing PE's simulated
// clock, so a trace is a deterministic record of *modeled* time, not host
// time. Begin/end kinds come in pairs (issue/complete, enter/exit,
// begin/end); the exporters match them into duration spans, everything else
// renders as an instant. The payload fields `a`/`b` are kind-specific (see
// the table in docs/OBSERVABILITY.md).

#include <cstdint>

namespace xbgas {

enum class EventKind : std::uint8_t {
  // Remote memory access (paper §3.3). a = payload bytes, target_pe set.
  kRmaPutIssue,
  kRmaPutComplete,
  kRmaGetIssue,
  kRmaGetComplete,
  // Remote atomic (instant). a = operand bytes, target_pe set.
  kAmo,
  // Barrier rendezvous (paper §4.2). a = BarrierAlgorithm as int,
  // b = modeled exchange rounds.
  kBarrierEnter,
  kBarrierExit,
  // Collective schedule stage (paper §4.3-§4.6, Algorithms 1-4), recorded
  // by the one stage loop. a = 0-based stage (ring: step) index; b = the
  // k-nomial radix for every tree schedule (2 for Algorithms 1-4, n for the
  // linear baselines), 0 for the ring schedules.
  kStageBegin,
  kStageEnd,
  // OLB translation outcome (paper §3.2). a = object ID.
  kOlbHit,
  kOlbMiss,
  kOlbLocal,
  // Local memory access through the cache model (paper §5.1 geometry).
  // a = level that serviced the slowest line (1 = L1, 2 = L2, 3 = DRAM),
  // b = access bytes.
  kCacheAccess,
  // TLB page-walk penalty. a = number of pages walked in this access.
  kTlbMiss,
  // Collective staging allocator (LIFO scratch, runtime §3.3). a = bytes.
  kStagingAlloc,
  kStagingFree,
  // Fault injection + resilience (src/fault). An injected fault landing on
  // this PE: a = FaultSite as int, b = attempt number within the transfer.
  kFaultInject,
  // A remote transfer being re-tried after a transient fault.
  // a = attempt number, b = backoff cycles charged.
  kRmaRetry,
  // Barrier watchdog fired on this PE. a = participants that arrived,
  // b = expected participants.
  kBarrierTimeout,
  // Collective algorithm dispatch (src/collectives/policy.hpp).
  // a = (CollKind << 8) | chosen CollAlgo, b = payload bytes.
  kCollDispatch,
  // XbrSan finding (src/san). a = SanViolationKind as int, b = offending
  // shared-segment byte offset; target_pe = the PE whose memory is involved.
  kSanViolation,
  // Survivor-recovery protocol step (docs/RESILIENCE.md). a = RecoveryOp as
  // int, b = op-specific payload: roster size for agree/shrink, snapshot
  // bytes for checkpoint/restore, 0 for revoke.
  kRecovery,
  // Serving-layer request lifecycle (src/serving, docs/SERVING.md).
  // a = ServingOp as int, b = op-specific payload (key for request ops,
  // push count for rebalance); target_pe = the shard owner involved, or -1.
  kServing,
  // Write-combiner flush (src/xbrtime/wc.hpp): buffered small puts to one
  // target leaving as a single batched transfer. a = payload bytes,
  // b = coalesced put count; target_pe = the destination shard.
  kWcFlush,
  // Unreachable-peer escalation (src/xbrtime/transport.hpp): this PE's
  // retries exhausted against a link scripted down, so the transfer failure
  // became a PeUnreachableError. a/b = the dead link's endpoints (a < b);
  // target_pe = the unreachable peer.
  kLinkFault,
};

inline constexpr int kEventKindCount =
    static_cast<int>(EventKind::kLinkFault) + 1;

/// Which recovery-protocol step a kRecovery event records (payload `a`).
enum class RecoveryOp : std::uint8_t {
  kAgree = 0,
  kShrink,
  kRevoke,
  kCheckpoint,
  kRestore,
};

constexpr const char* recovery_op_name(RecoveryOp op) {
  switch (op) {
    case RecoveryOp::kAgree: return "agree";
    case RecoveryOp::kShrink: return "shrink";
    case RecoveryOp::kRevoke: return "revoke";
    case RecoveryOp::kCheckpoint: return "checkpoint";
    case RecoveryOp::kRestore: return "restore";
  }
  return "unknown";
}

/// Which serving-layer step a kServing event records (payload `a`).
enum class ServingOp : std::uint8_t {
  kRetry = 0,      ///< an attempt timed out or threw; going again
  kHedge,          ///< slow primary read; duplicate issued to the replica
  kRedirect,       ///< request served by the replica, not the primary
  kReplay,         ///< suspect write re-applied after failover
  kFail,           ///< request failed (deadline or retries exhausted)
  kFailoverBegin,  ///< death detected; entering the recovery state machine
  kFailoverEnd,    ///< serving resumed on the shrunken team
  kRebalance,      ///< orphaned keys re-homed (b = keys pushed by this PE)
};

constexpr const char* serving_op_name(ServingOp op) {
  switch (op) {
    case ServingOp::kRetry: return "retry";
    case ServingOp::kHedge: return "hedge";
    case ServingOp::kRedirect: return "redirect";
    case ServingOp::kReplay: return "replay";
    case ServingOp::kFail: return "fail";
    case ServingOp::kFailoverBegin: return "failover_begin";
    case ServingOp::kFailoverEnd: return "failover_end";
    case ServingOp::kRebalance: return "rebalance";
  }
  return "unknown";
}

/// Stable short name for exporters and dumps.
constexpr const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kRmaPutIssue: return "rma_put_issue";
    case EventKind::kRmaPutComplete: return "rma_put_complete";
    case EventKind::kRmaGetIssue: return "rma_get_issue";
    case EventKind::kRmaGetComplete: return "rma_get_complete";
    case EventKind::kAmo: return "amo";
    case EventKind::kBarrierEnter: return "barrier_enter";
    case EventKind::kBarrierExit: return "barrier_exit";
    case EventKind::kStageBegin: return "stage_begin";
    case EventKind::kStageEnd: return "stage_end";
    case EventKind::kOlbHit: return "olb_hit";
    case EventKind::kOlbMiss: return "olb_miss";
    case EventKind::kOlbLocal: return "olb_local";
    case EventKind::kCacheAccess: return "cache_access";
    case EventKind::kTlbMiss: return "tlb_miss";
    case EventKind::kStagingAlloc: return "staging_alloc";
    case EventKind::kStagingFree: return "staging_free";
    case EventKind::kFaultInject: return "fault_inject";
    case EventKind::kRmaRetry: return "rma_retry";
    case EventKind::kBarrierTimeout: return "barrier_timeout";
    case EventKind::kCollDispatch: return "coll_dispatch";
    case EventKind::kSanViolation: return "san_violation";
    case EventKind::kRecovery: return "recovery";
    case EventKind::kServing: return "serving";
    case EventKind::kWcFlush: return "wc_flush";
    case EventKind::kLinkFault: return "link_fault";
  }
  return "unknown";
}

/// True for kinds that open a span closed by `end_kind_for`.
constexpr bool is_begin_kind(EventKind k) {
  return k == EventKind::kRmaPutIssue || k == EventKind::kRmaGetIssue ||
         k == EventKind::kBarrierEnter || k == EventKind::kStageBegin;
}

/// The closing kind for a begin kind (undefined for non-begin kinds).
constexpr EventKind end_kind_for(EventKind k) {
  switch (k) {
    case EventKind::kRmaPutIssue: return EventKind::kRmaPutComplete;
    case EventKind::kRmaGetIssue: return EventKind::kRmaGetComplete;
    case EventKind::kBarrierEnter: return EventKind::kBarrierExit;
    case EventKind::kStageBegin: return EventKind::kStageEnd;
    default: return k;
  }
}

constexpr bool is_end_kind(EventKind k) {
  return k == EventKind::kRmaPutComplete || k == EventKind::kRmaGetComplete ||
         k == EventKind::kBarrierExit || k == EventKind::kStageEnd;
}

/// Span display name for a begin/end pair (exporter track labels).
constexpr const char* span_name(EventKind begin) {
  switch (begin) {
    case EventKind::kRmaPutIssue: return "rma_put";
    case EventKind::kRmaGetIssue: return "rma_get";
    case EventKind::kBarrierEnter: return "barrier";
    case EventKind::kStageBegin: return "stage";
    default: return event_kind_name(begin);
  }
}

struct TraceEvent {
  std::uint64_t cycles = 0;    ///< SimClock timestamp at record time
  std::uint64_t a = 0;         ///< kind-specific payload (see EventKind)
  std::uint64_t b = 0;         ///< kind-specific payload (see EventKind)
  EventKind kind = EventKind::kRmaPutIssue;
  std::int32_t target_pe = -1; ///< peer PE for RMA/AMO kinds, else -1
};

}  // namespace xbgas
