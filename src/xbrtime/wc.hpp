#pragma once

// Per-PE write combining — the RMA aggregation engine for small-put storms.
//
// GUPs-style workloads issue thousands of tiny puts whose cost is pure
// per-message overhead: alpha (OLB + injection + hops + remote access)
// dwarfs the byte serialization. The write combiner batches small puts to
// the same target PE into one message: k puts of b bytes cost one alpha
// plus k*b serialization instead of k alphas — the >= 2x modeled-cycle win
// bench_gups measures.
//
//   xbr_wc_enable(threshold, capacity)  start coalescing on this PE
//   xbr_put_wc(dest, src, n, stride, pe)  put, buffered when eligible
//   xbr_wc_flush()                      push out every buffered put now
//   xbr_wc_disable()                    flush + stop coalescing
//
// Eligibility: coalescing on, contiguous (stride 1), remote (pe != rank),
// payload at most `threshold` bytes, and a symmetric destination. Anything
// else falls through to a plain blocking xbr_put, so xbr_put_wc is always
// safe to call.
//
// Flush points: a target buffer reaching `capacity` entries, xbr_wc_flush,
// xbr_quiet / xbr_fence / xbr_wait, barriers, and xbr_wc_disable. Until a
// put flushes, its DATA has not moved — unlike the nb/nbi transfers, which
// copy at issue — so the fence discipline is load-bearing: remote readers
// may only observe a wc put after a flush point, and the usual
// barrier-ordered programs get that for free. XbrSan checks the target
// range at enqueue time (fn "xbr_put_wc"), so bounds/lifetime/conflict
// diagnosis is not deferred.
//
// A flushed batch is one put message through the transport's attempt loop
// (xbrtime/transport.hpp): the same OLB lookup, wire cost, link plan and
// OLB-fault, drop and delay draws as any put, counted and traced per site,
// except that retries exhausted report site "wc_flush". Like the word-atomic
// path it skips the payload-corruption stages (bit-flip, checksum): entries
// land via per-entry header copies whose loss the drop site already models.

#include <cstddef>
#include <cstdint>

#include "xbrtime/rma.hpp"

namespace xbgas {

/// Process-wide write-combining counters (observability: rma.coalesced.*).
struct WcCounters {
  std::uint64_t puts = 0;      ///< xbr_put_wc calls
  std::uint64_t enqueued = 0;  ///< calls that buffered (vs fell through)
  std::uint64_t flushes = 0;   ///< batched messages sent
  std::uint64_t messages = 0;  ///< individual puts those batches carried
  std::uint64_t bytes = 0;     ///< payload bytes flushed
};

WcCounters wc_counters();
void reset_wc_counters();

/// Start coalescing on the calling PE. `threshold_bytes` caps the payload a
/// put may have and still coalesce; `capacity_entries` is the per-target
/// buffered-put count that triggers an automatic flush.
void xbr_wc_enable(std::size_t threshold_bytes = 64,
                   std::size_t capacity_entries = 64);

/// Flush everything buffered, then stop coalescing (xbr_put_wc degrades to
/// xbr_put until re-enabled).
void xbr_wc_disable();

/// True iff coalescing is on for the calling PE.
bool xbr_wc_enabled();

/// Flush every target's buffered puts now (blocking; modeled cost charged).
void xbr_wc_flush();

namespace detail {

/// Buffer the put if it is eligible (see header comment); returns false to
/// tell the caller to fall through to a plain xbr_put.
bool wc_try_enqueue(void* dest, const void* src, std::size_t elem_size,
                    std::size_t nelems, int stride, int pe);

/// Flush one target's buffer / all buffers for `ctx`'s PE. No-ops when the
/// combiner is off or empty, so the barrier/fence hooks are free in the
/// common case.
void wc_flush_target(PeContext& ctx, int pe);
void wc_flush_all(PeContext& ctx);

}  // namespace detail

template <class T>
void xbr_put_wc(T* dest, const T* src, std::size_t nelems, int stride,
                int pe) {
  detail::validate_rma("xbr_put_wc", dest, src, nelems, stride, pe);
  if (detail::wc_try_enqueue(dest, src, sizeof(T), nelems, stride, pe)) return;
  detail::rma_transfer("xbr_put", dest, src, sizeof(T), nelems, stride, pe,
                       /*remote_is_dest=*/true);
}

}  // namespace xbgas
