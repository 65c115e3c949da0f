#pragma once

// One-sided remote memory access (paper §3.3).
//
//   xbr_put(dest, src, nelems, stride, pe)   write local src  -> pe's dest
//   xbr_get(dest, src, nelems, stride, pe)   read  pe's src   -> local dest
//
// `dest` (for put) / `src` (for get) must be symmetric shared addresses:
// the caller passes its *own* copy of the symmetric allocation and the
// runtime rebases it onto the target PE, exactly how xBGAS hardware pairs an
// object ID with a local virtual address. `stride` is in elements and
// applies to both buffers (stride == 1 is contiguous); `nelems` may be 0.
//
// Non-blocking forms (`_nb`) move data immediately but only charge the
// injection cost at issue time; the remaining modeled latency completes at
// xbr_wait() or the next xbrtime_barrier(), so independent transfers
// overlap — mirroring the paper's non-blocking get/put.
//
// Timing model per remote transfer (see NetworkModel): one pipelined
// message — startup (OLB + injection + hop latency) + bytes/link-bandwidth
// serialization + remote memory access + a per-element issue cost that
// drops once `nelems` crosses the runtime's loop-unrolling threshold.
//
// Resilience (docs/RESILIENCE.md): every remote transfer and AMO runs the
// transport's one bounded-retry attempt loop (xbrtime/transport.hpp): under
// an active FaultConfig it is attempted up to 1 + max_rma_retries times with
// exponential backoff charged to the SimClock — retries show up in modeled
// time — and optional checksum verification turns injected payload
// corruption into the same retry path instead of silent data loss.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "xbrtime/runtime.hpp"

namespace xbgas {

namespace detail {

/// How a transfer completes and is tracked for hazards.
enum class NbTrack : std::uint8_t {
  kBlocking,  ///< completes before returning: the clock takes the full cost
  kLegacy,    ///< the original _nb epoch: closed only by xbr_wait / a barrier
  kRequest,   ///< explicit-handle nbi: registered in the per-PE request table
              ///< and closed individually by xbr_test / xbr_wait_req
  kInternal,  ///< collective-internal pipelining: timing only, no XbrSan
              ///< zones (the enclosing collective owns the hazard contract)
};

/// Byte-level transfer engine shared by all typed entry points. `fn` names
/// the entry point in XbrSan diagnostics and exhaustion errors.
/// If `remote_is_dest`, `dest` is the caller's symmetric address for the
/// remote destination (put); otherwise `src` is, for the remote source (get).
/// `atomic_elems` selects the word-atomic variant (xbr_put_atomic /
/// xbr_get_atomic): every element moves with one atomic access on the
/// symmetric side, the payload-corruption stages (bit-flip, checksum) are
/// skipped, and XbrSan records the access as atomic.
/// With `track == NbTrack::kRequest`, `req_out` (required non-null) receives
/// the allocated request id, or 0 when the transfer completed at issue
/// (zero length, or local pe == rank).
void rma_transfer(const char* fn, void* dest, const void* src,
                  std::size_t elem_size, std::size_t nelems, int stride, int pe,
                  bool remote_is_dest, NbTrack track = NbTrack::kBlocking,
                  bool atomic_elems = false, std::uint64_t* req_out = nullptr);

/// Entry-point argument validation: throws xbgas::Error naming `fn` and the
/// offending argument (bad pe, stride < 1, null dest/src) *before* any cost
/// is charged or any deep machinery (resolve_symmetric) is entered. Null
/// pointers are permitted for zero-length transfers, which touch no memory.
void validate_rma(const char* fn, const void* dest, const void* src,
                  std::size_t nelems, int stride, int pe);

/// Same for the AMO entry points (pe range, null dest).
void validate_amo(const char* fn, const void* dest, int pe);

/// Word-atomic entry points additionally require naturally aligned
/// buffers (std::atomic_ref demands it); throws xbgas::Error otherwise.
void validate_word_aligned(const char* fn, const void* dest, const void* src,
                           std::size_t elem_size);

}  // namespace detail

template <class T>
void xbr_put(T* dest, const T* src, std::size_t nelems, int stride, int pe) {
  detail::validate_rma("xbr_put", dest, src, nelems, stride, pe);
  detail::rma_transfer("xbr_put", dest, src, sizeof(T), nelems, stride, pe,
                       /*remote_is_dest=*/true);
}

template <class T>
void xbr_get(T* dest, const T* src, std::size_t nelems, int stride, int pe) {
  detail::validate_rma("xbr_get", dest, src, nelems, stride, pe);
  detail::rma_transfer("xbr_get", dest, src, sizeof(T), nelems, stride, pe,
                       /*remote_is_dest=*/false);
}

template <class T>
void xbr_put_nb(T* dest, const T* src, std::size_t nelems, int stride, int pe) {
  detail::validate_rma("xbr_put_nb", dest, src, nelems, stride, pe);
  detail::rma_transfer("xbr_put_nb", dest, src, sizeof(T), nelems, stride, pe,
                       /*remote_is_dest=*/true, detail::NbTrack::kLegacy);
}

template <class T>
void xbr_get_nb(T* dest, const T* src, std::size_t nelems, int stride, int pe) {
  detail::validate_rma("xbr_get_nb", dest, src, nelems, stride, pe);
  detail::rma_transfer("xbr_get_nb", dest, src, sizeof(T), nelems, stride, pe,
                       /*remote_is_dest=*/false, detail::NbTrack::kLegacy);
}

/// Word-atomic remote store: xbr_put for 4/8-byte elements where each
/// element lands with a single atomic access on the target's symmetric
/// slot. This models xBGAS's naturally aligned remote dword store — the
/// hardware moves an aligned word indivisibly — with std::atomic_ref
/// standing in for that atomicity on the host (the xbr_amo precedent), so
/// shards serving concurrent traffic from many PEs stay race-free without
/// any locking. Same fault/retry/cost machinery as xbr_put, except the
/// payload-corruption stages (bit-flip, checksum) do not apply: a ≤ 8-byte
/// operand travels in the request header, whose loss the drop site models.
/// XbrSan records the access as atomic, so atomic/atomic concurrency is
/// exempt from conflict detection while an overlapping plain transfer is
/// still diagnosed.
template <class T>
  requires(std::is_trivially_copyable_v<T> &&
           (sizeof(T) == 4 || sizeof(T) == 8))
void xbr_put_atomic(T* dest, const T* src, std::size_t nelems, int stride,
                    int pe) {
  detail::validate_rma("xbr_put_atomic", dest, src, nelems, stride, pe);
  detail::validate_word_aligned("xbr_put_atomic", dest, src, sizeof(T));
  detail::rma_transfer("xbr_put_atomic", dest, src, sizeof(T), nelems, stride,
                       pe, /*remote_is_dest=*/true, detail::NbTrack::kBlocking,
                       /*atomic_elems=*/true);
}

/// Word-atomic remote load, mirror of xbr_put_atomic.
template <class T>
  requires(std::is_trivially_copyable_v<T> &&
           (sizeof(T) == 4 || sizeof(T) == 8))
void xbr_get_atomic(T* dest, const T* src, std::size_t nelems, int stride,
                    int pe) {
  detail::validate_rma("xbr_get_atomic", dest, src, nelems, stride, pe);
  detail::validate_word_aligned("xbr_get_atomic", dest, src, sizeof(T));
  detail::rma_transfer("xbr_get_atomic", dest, src, sizeof(T), nelems, stride,
                       pe, /*remote_is_dest=*/false, detail::NbTrack::kBlocking,
                       /*atomic_elems=*/true);
}

/// Complete all outstanding non-blocking transfers issued by this PE.
void xbr_wait();

namespace detail {
/// Modeled AMO cost; also runs the XbrSan target check (`fn` names the
/// calling entry point in any violation diagnostic).
std::uint64_t amo_cycles(const char* fn, const void* local_addr,
                         std::size_t bytes, int pe);

/// The body every AMO entry point shares: charge the round trip, then apply
/// `fetch_op` (a std::atomic_ref fetch_* call) to the target word.
template <class T, class FetchOp>
T amo(const char* fn, T* dest, int pe, FetchOp fetch_op) {
  validate_amo(fn, dest, pe);
  PeContext& ctx = xbrtime_ctx();
  T* target = dest;
  if (pe != ctx.rank()) {
    target = reinterpret_cast<T*>(ctx.resolve_symmetric(pe, dest));
  }
  ctx.clock().advance(amo_cycles(fn, dest, sizeof(T), pe));
  return fetch_op(std::atomic_ref<T>(*target));
}
}  // namespace detail

/// Remote atomic XOR on a symmetric 32/64-bit integer (the GUPs update
/// primitive). The paper's runtime performs an unsynchronized remote
/// read-modify-write sequence; here host-side atomicity (std::atomic_ref)
/// stands in for it so the simulation itself stays race-free, while the
/// modeled cost remains the full get+put round trip that sequence costs.
template <class T>
  requires(std::is_integral_v<T> && (sizeof(T) == 4 || sizeof(T) == 8))
T xbr_amo_xor(T* dest, T value, int pe) {
  return detail::amo("xbr_amo_xor", dest, pe, [value](std::atomic_ref<T> a) {
    return a.fetch_xor(value, std::memory_order_relaxed);
  });
}

/// Remote atomic add, same contract as xbr_amo_xor.
template <class T>
  requires(std::is_integral_v<T> && (sizeof(T) == 4 || sizeof(T) == 8))
T xbr_amo_add(T* dest, T value, int pe) {
  return detail::amo("xbr_amo_add", dest, pe, [value](std::atomic_ref<T> a) {
    return a.fetch_add(value, std::memory_order_relaxed);
  });
}

}  // namespace xbgas
