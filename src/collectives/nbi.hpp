#pragma once

// Non-blocking collectives: xbr_*_nbi variants of broadcast / reduce /
// allreduce / fcollect that return a CollReq instead of blocking on the
// final fence.
//
// Execution model: like the nbi RMA primitives they are built on, an nbi
// collective moves its bytes host-side during the call — per-stage barriers
// still order the dependent hops of the tree/ring schedules — and defers
// only the tail: the last hop's transfers are issued nonblocking and the
// final fence is CollReq::wait(). Between issue and wait the caller
// overlaps computation with the modeled in-flight time; XbrSan (full mode)
// keeps the result buffer "open" (kCollInFlight) so a premature RMA touch
// of it is diagnosed, not silently absorbed.
//
// Pipelining: every internal hop is issued as chunked nonblocking
// transfers (detail::pipeline_chunks picks the split), so within a stage
// the chunks overlap (the completion horizon is a max, not a sum) and the
// per-step cost of the ring allreduce becomes max(transfer, combine)
// instead of their sum — the communication/computation overlap the paper's
// blocking collectives leave on the table.
//
// One schedule per family serves both forms: each entry point records its
// dispatch exactly like the blocking form (kCollDispatch events,
// coll.algo.* counters) and runs the same family switch (detail::run_* in
// policy.hpp) in SchedMode::kDeferred, so forced --coll-algo, tuned knobs
// and the analytic model apply unchanged.
//
// Contract: every participating PE must call wait() on every CollReq, in
// the same order (SPMD discipline; waits may be out of issue order as long
// as they agree across PEs). A collective whose work completes inside the
// call (every reduce, the ring allreduce, n == 1, an empty ring payload)
// returns an already-complete CollReq whose wait() is a no-op — callers
// treat every request uniformly.
// Any barrier is a full fence and also completes an in-flight collective;
// wait() stays mandatory for the modeled-time accounting and portability.

#include <cstddef>
#include <cstdint>

#include "collectives/policy.hpp"
#include "xbrtime/nbi.hpp"

namespace xbgas {

/// Process-wide nbi-collective counters (observability: coll.pipeline.*).
struct CollPipelineCounters {
  std::uint64_t collectives = 0;  ///< xbr_*_nbi calls issued
  std::uint64_t chunks = 0;       ///< internal pipelined transfer chunks
  std::uint64_t waits = 0;        ///< CollReq handles retired by wait()
};

CollPipelineCounters coll_pipeline_counters();
void reset_coll_pipeline_counters();

namespace detail {

// note_pipeline_chunks and note_pipeline_wait are declared in
// collectives.hpp, next to the schedules and the CollReq that count them.
void note_pipeline_collective();

/// Open the kCollInFlight zone over the caller's result buffer; closed by
/// CollReq::wait (or any other fence).
template <class T>
void open_coll_zone(const char* fn, T* dest, std::size_t nelems, int stride) {
  if (nelems == 0) return;
  PeContext& ctx = xbrtime_ctx();
  ctx.machine().sanitizer().note_coll_dest(
      fn, ctx.rank(), dest, strided_span(nelems, stride) * sizeof(T));
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatching nbi entry points (CollectivePolicy-routed)
// ---------------------------------------------------------------------------

template <class T>
CollReq xbr_broadcast_nbi(T* dest, const T* src, std::size_t nelems,
                          int stride, int root,
                          Communicator& comm = world_comm()) {
  detail::note_pipeline_collective();
  const CollDecision d =
      detail::resolve_and_record(CollKind::kBroadcast, comm.n_pes(), nelems,
                                 sizeof(T), &comm == &world_comm());
  CollReq req = detail::run_broadcast(d, SchedMode::kDeferred, dest, src,
                                      nelems, stride, root, comm);
  if (!req.done()) {
    detail::open_coll_zone("xbr_broadcast_nbi", dest, nelems, stride);
  }
  return req;
}

template <class Op, class T>
CollReq xbr_reduce_nbi(T* dest, const T* src, std::size_t nelems, int stride,
                       int root, Communicator& comm = world_comm()) {
  detail::note_pipeline_collective();
  const CollDecision d =
      detail::resolve_and_record(CollKind::kReduce, comm.n_pes(), nelems,
                                 sizeof(T), &comm == &world_comm());
  return detail::run_reduce<Op>(d, SchedMode::kDeferred, dest, src, nelems,
                                stride, root, comm);
}

template <class Op, class T>
CollReq xbr_reduce_all_nbi(T* dest, const T* src, std::size_t nelems,
                           int stride, Communicator& comm = world_comm()) {
  detail::note_pipeline_collective();
  const CollDecision d =
      detail::resolve_and_record(CollKind::kAllreduce, comm.n_pes(), nelems,
                                 sizeof(T), &comm == &world_comm());
  CollReq req = detail::run_reduce_all<Op>(d, SchedMode::kDeferred, dest,
                                           src, nelems, stride, comm);
  if (!req.done()) {
    detail::open_coll_zone("xbr_reduce_all_nbi", dest, nelems, stride);
  }
  return req;
}

template <class T>
CollReq xbr_fcollect_nbi(T* dest, const T* src, std::size_t nelems_per_pe,
                         Communicator& comm = world_comm()) {
  detail::note_pipeline_collective();
  const int n = comm.n_pes();
  const std::size_t total = nelems_per_pe * static_cast<std::size_t>(n);
  const CollDecision d = detail::resolve_and_record(
      CollKind::kAllgather, n, total, sizeof(T), &comm == &world_comm());
  CollReq req = detail::run_fcollect(d, SchedMode::kDeferred, dest, src,
                                     nelems_per_pe, comm);
  if (!req.done()) detail::open_coll_zone("xbr_fcollect_nbi", dest, total, 1);
  return req;
}

}  // namespace xbgas
