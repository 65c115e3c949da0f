#include "xbrtime/rma.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "fault/checksum.hpp"
#include "fault/injector.hpp"
#include "machine/fiber.hpp"
#include "net/fabric.hpp"
#include "olb/olb.hpp"
#include "san/sanitizer.hpp"
#include "xbrtime/nbi.hpp"
#include "xbrtime/transport.hpp"

namespace xbgas {

namespace {

/// Strided element-wise copy; memmove throughout — a local (pe == rank)
/// transfer may have overlapping src/dst ranges, where per-element memcpy is
/// undefined behavior even when each element pair happens to be disjoint.
void copy_elements(std::byte* dst, const std::byte* src, std::size_t elem_size,
                   std::size_t nelems, int stride) {
  if (stride == 1) {
    std::memmove(dst, src, elem_size * nelems);
    return;
  }
  const std::size_t step = elem_size * static_cast<std::size_t>(stride);
  for (std::size_t i = 0; i < nelems; ++i) {
    std::memmove(dst + i * step, src + i * step, elem_size);
  }
}

/// Word-atomic strided copy for xbr_put_atomic / xbr_get_atomic: each
/// element moves with one relaxed atomic access on the symmetric
/// (contended) side — `atomic_dst` says which side that is — and a plain
/// access on the caller's private buffer. Relaxed is enough: the simulated
/// fabric provides no ordering either; cross-PE ordering comes from
/// barriers.
template <class T>
void copy_words_atomic(std::byte* dst, const std::byte* src,
                       std::size_t nelems, int stride, bool atomic_dst) {
  const std::size_t step = sizeof(T) * static_cast<std::size_t>(stride);
  for (std::size_t i = 0; i < nelems; ++i) {
    T v;
    if (atomic_dst) {
      std::memcpy(&v, src + i * step, sizeof(T));
      std::atomic_ref<T>(*reinterpret_cast<T*>(dst + i * step))
          .store(v, std::memory_order_relaxed);
    } else {
      v = std::atomic_ref<T>(*reinterpret_cast<T*>(
                                 const_cast<std::byte*>(src) + i * step))
              .load(std::memory_order_relaxed);
      std::memcpy(dst + i * step, &v, sizeof(T));
    }
  }
}

void copy_elements_atomic(std::byte* dst, const std::byte* src,
                          std::size_t elem_size, std::size_t nelems,
                          int stride, bool atomic_dst) {
  if (elem_size == 8) {
    copy_words_atomic<std::uint64_t>(dst, src, nelems, stride, atomic_dst);
  } else {
    copy_words_atomic<std::uint32_t>(dst, src, nelems, stride, atomic_dst);
  }
}

/// Modeled cost of software checksum verification: one pass over the moved
/// bytes on each side of the transfer at cache-line throughput.
std::uint64_t checksum_cycles(std::size_t bytes) { return (2 * bytes) / 8 + 1; }

/// XbrSan validation of the remote (or local-symmetric) side of a transfer:
/// bounds + lifetime against the target PE's live allocations, and in full
/// mode the same-epoch conflict ledger. `sym` is the caller's own symmetric
/// address for the range (the offset is identical on every PE by the
/// symmetric-heap discipline). Throws SanViolationError *before* any bytes
/// move, so the diagnosed access never lands.
void san_check_target(Sanitizer& san, PeContext& ctx, const char* fn,
                      int target_pe, const void* sym, std::size_t span,
                      SanAccess access) {
  if (!san.enabled()) return;
  if (!ctx.arena().in_shared(sym, 0)) return;  // non-symmetric local scratch
  san.check_remote(fn, ctx.rank(), target_pe, ctx.arena().shared_offset_of(sym),
                   span, ctx.arena().shared_size(), access,
                   ctx.clock().cycles(), &ctx.trace());
}

/// Count one injected fault and record its kFaultInject trace event.
void note_fault(PeContext& ctx, int pe, int attempt, FaultSite site,
                std::atomic<std::uint64_t>& count) {
  count.fetch_add(1, std::memory_order_relaxed);
  ctx.trace().record(EventKind::kFaultInject, pe,
                     static_cast<std::uint64_t>(site),
                     static_cast<std::uint64_t>(attempt));
}

}  // namespace

namespace detail {

std::uint64_t local_access_cycles(PeContext& ctx, const void* ptr,
                                  std::size_t bytes) {
  const MemoryArena& arena = ctx.arena();
  if (arena.contains(ptr, bytes)) {
    // Defined: contains() proved both pointers address the arena array.
    const auto addr = static_cast<std::uint64_t>(
        static_cast<const std::byte*>(ptr) - arena.base());
    return ctx.cache().access(addr, bytes);
  }
  return ctx.cache().config().costs.l1_hit_cycles;
}

std::uint64_t issue_cycles(const NetCostParams& p, std::size_t nelems) {
  const std::uint64_t per =
      nelems > p.unroll_threshold ? p.issue_per_element_cycles_unrolled
                                  : p.issue_per_element_cycles;
  return per * nelems;
}

int max_attempts(PeContext& ctx) {
  const FaultConfig& fc = ctx.machine().fault_injector().config();
  return 1 + std::max(0, fc.max_rma_retries);
}

const char* wire_attempt(PeContext& ctx, int pe, Wire wire, std::size_t bytes,
                         int attempt, std::uint64_t& cycles) {
  NetworkModel& net = ctx.machine().network();
  FaultInjector& fault = ctx.machine().fault_injector();
  FaultCounters& counters = fault.counters();
  const int rank = ctx.rank();
  // The architectural OLB translation (§3.2) and the full wire cost, paid
  // again by every retransmission, which also consumes fabric bandwidth.
  (void)ctx.olb().lookup(object_id_for_pe(pe));
  if (wire != Wire::kPut) {
    cycles += net.get_cost(rank, pe, bytes);
    net.record(/*is_put=*/false, bytes, rank, pe);
  }
  if (wire != Wire::kGet) {
    cycles += net.put_cost(rank, pe, bytes);
    net.record(/*is_put=*/true, bytes, rank, pe);
  }

  if (!net.link_faults().empty()) {
    // Scripted link plan at this attempt's modeled time: a down link drops
    // the attempt wholesale (retries keep failing until exhaustion
    // escalates), a degraded one charges extra alpha/beta per crossing.
    const LinkStatus ls =
        net.link_faults().status(rank, pe, ctx.clock().cycles() + cycles);
    if (ls == LinkStatus::kDown) {
      note_fault(ctx, pe, attempt, FaultSite::kLinkDown,
                 counters.link_down_drops);
      return "link_down";
    }
    if (ls == LinkStatus::kDegraded) {
      note_fault(ctx, pe, attempt, FaultSite::kLinkDegraded,
                 counters.link_degraded);
      const std::uint64_t crossings = wire == Wire::kRmw ? 2 : 1;
      cycles += crossings * net.degraded_penalty_cycles(bytes);
    }
  }

  if (!fault.enabled()) return nullptr;
  if (wire == Wire::kRmw) {
    // The RMW happens at the target: no payload path, so its own drop and
    // delay sites and no translation-fault draw.
    if (fault.draw_amo_drop(rank)) {
      note_fault(ctx, pe, attempt, FaultSite::kAmoDrop, counters.amo_drops);
      return "amo_drop";
    }
    if (fault.draw_amo_delay(rank)) {
      note_fault(ctx, pe, attempt, FaultSite::kAmoDelay, counters.amo_delays);
      cycles += fault.config().delay_cycles;
    }
    return nullptr;
  }
  if (fault.draw_olb_fault(rank)) {
    note_fault(ctx, pe, attempt, FaultSite::kOlbFault, counters.olb_faults);
    return "olb";
  }
  if (fault.draw_rma_drop(rank)) {
    note_fault(ctx, pe, attempt, FaultSite::kRmaDrop, counters.rma_drops);
    return "drop";
  }
  if (fault.draw_rma_delay(rank)) {
    note_fault(ctx, pe, attempt, FaultSite::kRmaDelay, counters.rma_delays);
    cycles += fault.config().delay_cycles;
  }
  return nullptr;
}

std::uint64_t retry_backoff(PeContext& ctx, int pe, Wire wire, int attempt) {
  FaultInjector& fault = ctx.machine().fault_injector();
  (wire == Wire::kRmw ? fault.counters().amo_retries
                      : fault.counters().rma_retries)
      .fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t backoff = backoff_cycles(fault.config(), attempt);
  ctx.trace().record(EventKind::kRmaRetry, pe,
                     static_cast<std::uint64_t>(attempt), backoff);
  return backoff;
}

void attempts_exhausted(PeContext& ctx, int pe, const char* fn,
                        const char* site, const char* cause, int attempts,
                        std::size_t bytes, std::uint64_t cycles) {
  ctx.clock().advance(cycles);
  const int rank = ctx.rank();
  const std::string what =
      std::string(fn) + ": retries exhausted, " + std::to_string(attempts) +
      " attempts lost to " + cause + " (PE " + std::to_string(rank) + " -> " +
      std::to_string(pe) + ", " + std::to_string(bytes) + " bytes)";
  Machine& machine = ctx.machine();
  LinkFaults& links = machine.network().link_faults();
  if (!links.empty() &&
      links.status(rank, pe, ctx.clock().cycles()) == LinkStatus::kDown) {
    // The retries died against a link scripted down: not a lossy transient
    // but an unreachable peer. Escalate — record the suspect, pull every
    // blocked PE into recovery, and throw the typed verdict.
    const int a = std::min(rank, pe);
    const int b = std::max(rank, pe);
    machine.fault_injector().counters().pe_unreachable.fetch_add(
        1, std::memory_order_relaxed);
    ctx.trace().record(EventKind::kLinkFault, pe, static_cast<std::uint64_t>(a),
                       static_cast<std::uint64_t>(b));
    machine.recovery().note_unreachable(rank, pe);
    machine.poison_barriers_for_unreachable(
        pe, "PE " + std::to_string(rank) +
                " exhausted retries across down link (" + std::to_string(a) +
                ", " + std::to_string(b) + ")");
    throw PeUnreachableError(
        what + "; link (" + std::to_string(a) + ", " + std::to_string(b) +
            ") is down — peer " + std::to_string(pe) + " unreachable",
        attempts, pe, site, a, b);
  }
  throw RmaRetriesExhaustedError(what, attempts, pe, site);
}

void validate_rma(const char* fn, const void* dest, const void* src,
                  std::size_t nelems, int stride, int pe) {
  PeContext& ctx = xbrtime_ctx();
  if (pe < 0 || pe >= ctx.n_pes()) {
    throw Error(std::string(fn) + ": pe " + std::to_string(pe) +
                " out of range [0, " + std::to_string(ctx.n_pes()) + ")");
  }
  if (stride < 1) {
    throw Error(std::string(fn) + ": stride must be >= 1 (got " +
                std::to_string(stride) + ")");
  }
  if (nelems == 0) return;  // a zero-length transfer touches no memory
  if (dest == nullptr) {
    throw Error(std::string(fn) + ": dest must not be null");
  }
  if (src == nullptr) {
    throw Error(std::string(fn) + ": src must not be null");
  }
}

void validate_amo(const char* fn, const void* dest, int pe) {
  validate_rma(fn, dest, dest, /*nelems=*/1, /*stride=*/1, pe);
}

void validate_word_aligned(const char* fn, const void* dest, const void* src,
                           std::size_t elem_size) {
  const auto misaligned = [elem_size](const void* p) {
    return p != nullptr &&
           reinterpret_cast<std::uintptr_t>(p) % elem_size != 0;
  };
  if (misaligned(dest) || misaligned(src)) {
    throw Error(std::string(fn) + ": buffers must be naturally aligned to " +
                std::to_string(elem_size) +
                " bytes (word-atomic access requires it)");
  }
}

void rma_transfer(const char* fn, void* dest, const void* src,
                  std::size_t elem_size, std::size_t nelems, int stride, int pe,
                  bool remote_is_dest, NbTrack track, bool atomic_elems,
                  std::uint64_t* req_out) {
  // Cooperative poll point: RMA issues are the densest operation in a PE
  // body, so they bound a fiber's uninterrupted slice (and host the seeded
  // yield injection the scheduler tests rely on).
  FiberScheduler::poll_yield();
  PeContext& ctx = xbrtime_ctx();
  XBGAS_CHECK(pe >= 0 && pe < ctx.n_pes(), "RMA target PE out of range");
  XBGAS_CHECK(stride >= 1, "RMA stride must be >= 1");
  XBGAS_CHECK(track != NbTrack::kRequest || req_out != nullptr,
              "request-tracked transfer needs a request-out slot");
  if (req_out != nullptr) *req_out = 0;  // completed-at-issue until proven nb
  if (nelems == 0) return;

  const std::size_t span =
      elem_size * ((nelems - 1) * static_cast<std::size_t>(stride) + 1);
  const std::size_t bytes = elem_size * nelems;

  std::byte* dst_ptr = static_cast<std::byte*>(dest);
  const std::byte* src_ptr = static_cast<const std::byte*>(src);

  Sanitizer& san = ctx.machine().sanitizer();
  // How each side of the copy is recorded by XbrSan: the symmetric side of
  // a word-atomic transfer is an atomic access (atomic/atomic concurrency
  // is legal), the caller's private side stays a plain access.
  const SanAccess sym_write =
      atomic_elems ? SanAccess::kAtomic : SanAccess::kWrite;
  const SanAccess sym_read =
      atomic_elems ? SanAccess::kAtomic : SanAccess::kRead;
  const auto copy = [&] {
    if (atomic_elems) {
      copy_elements_atomic(dst_ptr, src_ptr, elem_size, nelems, stride,
                           /*atomic_dst=*/remote_is_dest);
    } else {
      copy_elements(dst_ptr, src_ptr, elem_size, nelems, stride);
    }
  };

  if (pe == ctx.rank()) {
    // Local transfer: the §3.2 object-ID-0 shortcut. Plain memory-to-memory
    // copy with cache-model accounting; never crosses the fabric, so the
    // fault injector (whose sites are all remote-transfer sites) is not
    // consulted. XbrSan still sees symmetric-heap ranges: the copy must not
    // touch an open nonblocking landing zone, and in full mode it enters the
    // ledger so a peer's same-epoch remote access to the range is caught.
    if (san.conflicts_enabled()) {
      san.check_local(fn, ctx.rank(), src_ptr, span, /*is_write=*/false,
                      &ctx.trace());
      san.check_local(fn, ctx.rank(), dst_ptr, span, /*is_write=*/true,
                      &ctx.trace());
    }
    san_check_target(san, ctx, fn, pe, src_ptr, span,
                     remote_is_dest ? SanAccess::kRead : sym_read);
    san_check_target(san, ctx, fn, pe, dst_ptr, span,
                     remote_is_dest ? sym_write : SanAccess::kWrite);
    const std::uint64_t cycles = local_access_cycles(ctx, src_ptr, span) +
                                 local_access_cycles(ctx, dst_ptr, span) +
                                 issue_cycles(ctx.machine().network().params(),
                                              nelems);
    ctx.clock().advance(cycles);
    copy();
    return;
  }

  NetworkModel& net = ctx.machine().network();
  FaultInjector& fault = ctx.machine().fault_injector();
  const int rank = ctx.rank();
  if (fault.enabled()) fault.on_rma_issue(rank);  // scripted-kill site

  std::uint64_t cycles = issue_cycles(net.params(), nelems);
  ctx.trace().record(remote_is_dest ? EventKind::kRmaPutIssue
                                    : EventKind::kRmaGetIssue,
                     pe, bytes);

  // Local-side cost and symmetric-address rebase (once; retries re-use the
  // translation result but re-pay the wire).
  if (remote_is_dest) {
    cycles += local_access_cycles(ctx, src_ptr, span);
    dst_ptr = ctx.resolve_symmetric(pe, dst_ptr);
  } else {
    cycles += local_access_cycles(ctx, dst_ptr, span);
    src_ptr = ctx.resolve_symmetric(pe, src_ptr);
  }

  // XbrSan: validate the remote target range (bounds/lifetime/conflicts)
  // and the local side (must not touch an open nonblocking landing zone)
  // before any bytes move. The symmetric address passed by the caller has
  // the same offset on every PE, so it names the remote range exactly.
  san_check_target(san, ctx, fn, pe, remote_is_dest ? dest : src, span,
                   remote_is_dest ? sym_write : sym_read);
  if (san.conflicts_enabled()) {
    san.check_local(fn, rank, remote_is_dest ? src : dest, span,
                    /*is_write=*/!remote_is_dest, &ctx.trace());
  }

  remote_attempts(
      ctx, pe, remote_is_dest ? Wire::kPut : Wire::kGet, bytes, cycles, fn,
      /*site=*/nullptr, [&](int attempt, std::uint64_t& landed) {
        copy();
        // A word-atomic element travels in the request header, whose loss
        // the drop site already models, and a plain corruption write would
        // race the very accesses this path keeps atomic: no bit-flip or
        // checksum stage.
        if (atomic_elems) return true;
        if (fault.enabled() && fault.draw_rma_bitflip(rank)) {
          note_fault(ctx, pe, attempt, FaultSite::kRmaBitflip,
                     fault.counters().rma_bitflips);
          fault.corrupt_payload(rank, dst_ptr, elem_size, nelems, stride);
        }
        if (!fault.config().verify_checksum) return true;
        landed += checksum_cycles(bytes);
        if (strided_checksum(src_ptr, elem_size, nelems, stride) ==
            strided_checksum(dst_ptr, elem_size, nelems, stride)) {
          return true;
        }
        fault.counters().checksum_failures.fetch_add(1,
                                                     std::memory_order_relaxed);
        return false;
      });

  const EventKind done_kind = remote_is_dest ? EventKind::kRmaPutComplete
                                             : EventKind::kRmaGetComplete;
  if (track == NbTrack::kBlocking) {
    ctx.clock().advance(cycles);
    ctx.trace().record(done_kind, pe, bytes);
    return;
  }
  // The transfer completes at the modeled horizon, not when the issuing
  // PE's clock moves on — stamp the completion event there.
  const std::uint64_t done_at = ctx.clock().cycles() + cycles;
  ctx.note_pending(done_at);
  ctx.clock().advance(net.params().injection_cycles);
  ctx.trace().record_at(done_at, done_kind, pe, bytes);
  if (track == NbTrack::kRequest) {
    // Explicit-handle nbi: register the request so xbr_test/xbr_wait_req
    // can complete it individually, and open the request-tagged XbrSan
    // zones — the local source of a put must not be rewritten, the remote
    // landing zone must not be observed, and a get's destination must not
    // be touched until the request completes.
    XbrtimeRuntimeState& st = ctx.xbrtime_state();
    const std::uint64_t id = st.nbi_next_id++;
    st.nbi_inflight.push_back({id, done_at});
    *req_out = id;
    if (remote_is_dest) {
      san.note_nb_src(fn, rank, src, span, id);
      if (san.conflicts_enabled() && ctx.arena().in_shared(dest, 0)) {
        san.note_nb_remote(fn, rank, pe, ctx.arena().shared_offset_of(dest),
                           span, id);
      }
    } else {
      san.note_nb_dest(fn, rank, dest, span, id);
    }
  } else if (track == NbTrack::kLegacy && !remote_is_dest) {
    // A nonblocking get's destination stays "open" until xbr_wait: reading
    // it before then observes a half-landed transfer.
    san.note_nb_dest(fn, rank, dest, span);
  }
}

std::uint64_t amo_cycles(const char* fn, const void* local_addr,
                         std::size_t bytes, int pe) {
  PeContext& ctx = xbrtime_ctx();
  // XbrSan: an AMO is an atomic access to the target range — atomic/atomic
  // pairs are legitimate (the GUPs update pattern), atomic vs plain
  // transfer is a conflict. Checked before any cost is charged.
  san_check_target(ctx.machine().sanitizer(), ctx, fn, pe, local_addr, bytes,
                   SanAccess::kAtomic);
  if (pe == ctx.rank()) {
    // Local RMW: the cache access dominates; the write-back hits the line
    // just fetched.
    return local_access_cycles(ctx, local_addr, bytes) +
           ctx.cache().config().costs.l1_hit_cycles;
  }
  FaultInjector& fault = ctx.machine().fault_injector();
  if (fault.enabled()) fault.on_amo_issue(ctx.rank());  // scripted-kill site
  ctx.trace().record(EventKind::kAmo, pe, bytes);
  // The round trip and its retries, the same loop (and the same typed
  // exhaustion) as a transfer; the RMW itself happens at the caller.
  std::uint64_t cycles = 0;
  remote_attempts(ctx, pe, Wire::kRmw, bytes, cycles, fn, /*site=*/nullptr,
                  [](int, std::uint64_t&) { return true; });
  return cycles;
}

}  // namespace detail

void xbr_wait() {
  // Full drain, shared with xbr_quiet and the barriers: write combiner
  // flushed, clock to the pending horizon, request table cleared, XbrSan
  // zones closed.
  detail::nb_drain_all(xbrtime_ctx());
}

}  // namespace xbgas
