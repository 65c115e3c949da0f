#pragma once

// Explicit-handle nonblocking RMA (the OpenSHMEM *_nbi family).
//
//   req = xbr_put_nbi(dest, src, nelems, stride, pe)   start a put
//   req = xbr_get_nbi(dest, src, nelems, stride, pe)   start a get
//   xbr_test(req)       true iff the transfer has completed (non-advancing)
//   xbr_wait_req(req)   block (advance the clock) until it completes
//   xbr_quiet()         complete ALL outstanding nb traffic from this PE
//   xbr_fence()         quiet + write-combiner flush: remote completion order
//
// Like the legacy _nb forms, an nbi transfer moves its bytes host-side at
// issue and defers only the *modeled* latency: the issuing PE is charged the
// injection cost now, and the remainder completes at the request's horizon.
// Independent requests overlap (the horizon is a max, not a sum), which is
// the communication/computation overlap the collective pipelines and the
// serving layer's hedged reads build on.
//
// Completion discipline: a request completes at xbr_test (when its horizon
// has passed), xbr_wait_req, xbr_quiet, xbr_wait, or any barrier — barriers
// are full fences in the xbrtime model. Until then XbrSan (full mode) keeps
// the request's hazard zones open: a put's local source must not be
// rewritten (kNbWriteBeforeWait), its remote landing zone must not be
// accessed by anyone (kNbRemoteBeforeWait), and a get's local destination
// must not be touched (kNbReadBeforeWait). docs/SANITIZER.md has the table.

#include <cstddef>
#include <cstdint>

#include "xbrtime/rma.hpp"

namespace xbgas {

/// Handle to one explicit nonblocking transfer. Value-semantic; id 0 is the
/// null (already-complete) request, returned for transfers that finish at
/// issue (zero length, or a local pe == rank copy).
struct XbrRequest {
  std::uint64_t id = 0;

  bool is_null() const { return id == 0; }
};

/// Process-wide nbi traffic counters (observability: rma.nbi.*). Reset
/// between benchmark repetitions with reset_rma_nbi_counters().
struct RmaNbiCounters {
  std::uint64_t puts = 0;    ///< xbr_put_nbi calls
  std::uint64_t gets = 0;    ///< xbr_get_nbi / xbr_get_atomic_nbi calls
  std::uint64_t tests = 0;   ///< xbr_test probes
  std::uint64_t waits = 0;   ///< xbr_wait_req completions
  std::uint64_t quiets = 0;  ///< xbr_quiet / xbr_fence drains
};

RmaNbiCounters rma_nbi_counters();
void reset_rma_nbi_counters();

/// True iff the transfer behind `req` has completed — its modeled horizon is
/// at or before the calling PE's clock. Never advances the clock; completes
/// (retires) the request when it returns true. A null or already-retired
/// request is trivially complete.
bool xbr_test(XbrRequest req);

/// Complete the transfer behind `req`: advance the calling PE's clock to the
/// request's horizon (no-op if already past) and retire it.
void xbr_wait_req(XbrRequest req);

/// Complete ALL outstanding nonblocking traffic issued by this PE: flush the
/// write combiner, advance the clock to the pending-completion horizon, and
/// retire every live request (the OpenSHMEM quiet).
void xbr_quiet();

/// Ordering fence for remote writes. In this model every transfer is
/// complete when its horizon passes, so fence and quiet coincide; the
/// distinct entry point preserves the OpenSHMEM put-ordering contract for
/// code written against it.
void xbr_fence();

namespace detail {

/// Count an nbi issue in the process-wide counters.
void note_nbi_issue(bool is_put);

/// The shared drain used by xbr_quiet / xbr_wait / both barrier flavours:
/// write-combiner flush, clock to the pending horizon, request table
/// cleared, XbrSan zones closed.
void nb_drain_all(PeContext& ctx);

/// The recovery twin of nb_drain_all (xbr_team_shrink): drop buffered
/// write-combined puts, the pending horizon and the request table without
/// sending or charging anything, and close XbrSan zones.
void nb_discard_all(PeContext& ctx);

}  // namespace detail

template <class T>
XbrRequest xbr_put_nbi(T* dest, const T* src, std::size_t nelems, int stride,
                       int pe) {
  detail::validate_rma("xbr_put_nbi", dest, src, nelems, stride, pe);
  std::uint64_t id = 0;
  detail::rma_transfer(dest, src, sizeof(T), nelems, stride, pe,
                       /*remote_is_dest=*/true, /*nonblocking=*/true,
                       /*atomic_elems=*/false, detail::NbTrack::kRequest, &id);
  detail::note_nbi_issue(/*is_put=*/true);
  return XbrRequest{id};
}

template <class T>
XbrRequest xbr_get_nbi(T* dest, const T* src, std::size_t nelems, int stride,
                       int pe) {
  detail::validate_rma("xbr_get_nbi", dest, src, nelems, stride, pe);
  std::uint64_t id = 0;
  detail::rma_transfer(dest, src, sizeof(T), nelems, stride, pe,
                       /*remote_is_dest=*/false, /*nonblocking=*/true,
                       /*atomic_elems=*/false, detail::NbTrack::kRequest, &id);
  detail::note_nbi_issue(/*is_put=*/false);
  return XbrRequest{id};
}

/// Nonblocking word-atomic remote load: xbr_get_atomic's element atomicity
/// with xbr_get_nbi's completion discipline. The serving layer's hedged
/// reads use this to keep several replica loads in flight at once.
template <class T>
  requires(std::is_trivially_copyable_v<T> &&
           (sizeof(T) == 4 || sizeof(T) == 8))
XbrRequest xbr_get_atomic_nbi(T* dest, const T* src, std::size_t nelems,
                              int stride, int pe) {
  detail::validate_rma("xbr_get_atomic_nbi", dest, src, nelems, stride, pe);
  detail::validate_word_aligned("xbr_get_atomic_nbi", dest, src, sizeof(T));
  std::uint64_t id = 0;
  detail::rma_transfer(dest, src, sizeof(T), nelems, stride, pe,
                       /*remote_is_dest=*/false, /*nonblocking=*/true,
                       /*atomic_elems=*/true, detail::NbTrack::kRequest, &id);
  detail::note_nbi_issue(/*is_put=*/false);
  return XbrRequest{id};
}

}  // namespace xbgas
