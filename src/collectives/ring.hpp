#pragma once

// Ring algorithms for large messages — the paper's §7 future-work item:
// "algorithms optimized for larger message sizes ... need to be added to
// our existing binomial tree methodology".
//
//   ring_broadcast   segmented pipeline root -> 1 -> ... -> n-1
//   ring_reduce      segmented pipeline n-1 -> ... -> root, combining per hop
//   ring_allreduce   reduce-scatter + allgather, 2(n-1) steps,
//                    bandwidth-optimal (each PE moves ~2B bytes total)
//   ring_allgather   fixed-count gather-to-all, n-1 steps of B/n bytes
//
// Each keeps only its per-step body and runs on the shared stage loop
// (detail::run_stages in collectives.hpp): one stage per ring step, closed
// by a barrier, with stage spans b = 0. Broadcast, allreduce and allgather
// take the SchedMode their caller picked: kBlocking moves each hop with
// xbr_put/xbr_get, the nbi modes with nonblocking transfers, and kDeferred
// leaves the final step's fence to CollReq::wait where the schedule allows
// it.
//
// In the segmented forms the message is split into S segments that flow
// along the virtual-rank chain one hop per step, with all links active once
// the pipeline fills ((n-2) + S total steps). Per-PE data volume is the
// payload itself (vs the binomial tree, where interior nodes forward the
// *whole* payload log-depth times on the critical path), so the ring wins
// once per-segment serialization outweighs its extra synchronization
// steps — the classic large-message crossover the policy layer
// (policy.hpp) models analytically and bench_policy_crossover measures.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "collectives/collectives.hpp"

namespace xbgas {

/// Default segment count heuristic: one segment per 256 elements, capped so
/// tiny messages degrade to a plain (unsegmented) chain.
constexpr std::size_t ring_default_segments(std::size_t nelems) {
  return std::clamp<std::size_t>(nelems / 256, 1, 32);
}

/// Broadcast with the same contract as xbgas::broadcast (symmetric dest on
/// every PE, root-private src, stride in elements), pipelined over a ring.
/// `segments` == 0 selects the heuristic. In the nbi modes each segment hop
/// is one nonblocking transfer; kDeferred leaves the last step unfenced and
/// returns a live request (when n > 1 and the payload is not empty).
template <class T>
CollReq ring_broadcast(T* dest, const T* src, std::size_t nelems, int stride,
                       int root, Communicator& comm = world_comm(),
                       std::size_t segments = 0,
                       SchedMode mode = SchedMode::kBlocking) {
  const int vr = detail::collective_prologue(comm, root, stride);
  const int n = comm.n_pes();

  // Root primes its own dest; it forwards from dest like everyone else.
  if (vr == 0 && nelems > 0 && dest != src) {
    xbr_put(dest, src, nelems, stride, comm.world_rank(comm.rank()));
  }
  comm.barrier();
  if (n == 1 || nelems == 0) return CollReq{};

  const std::size_t nseg =
      std::min(segments == 0 ? ring_default_segments(nelems) : segments,
               nelems);
  const int next_world =
      vr < n - 1 ? comm.world_rank(logical_rank(vr + 1, root, n)) : -1;
  const int total_steps = (n - 2) + static_cast<int>(nseg);
  return detail::run_stages(comm, total_steps, /*b=*/0, mode, [&](int step) {
    // Virtual rank r forwards segment (step - r) this step, if it exists.
    const int s = step - vr;
    if (s >= 0 && s < static_cast<int>(nseg) && vr < n - 1) {
      const std::size_t lo = nelems * static_cast<std::size_t>(s) / nseg;
      const std::size_t hi =
          nelems * (static_cast<std::size_t>(s) + 1) / nseg;
      if (hi > lo) {
        // A segment is one transfer in every mode: chunk = its length.
        const std::size_t at = lo * static_cast<std::size_t>(stride);
        detail::hop_put(mode, dest + at, dest + at, hi - lo, stride,
                        next_world, /*chunk=*/hi - lo);
      }
    }
  });
}

namespace detail {

/// Pack a strided user buffer into contiguous staging (and back).
template <class T>
void pack_strided(T* packed, const T* user, std::size_t nelems, int stride) {
  for (std::size_t j = 0; j < nelems; ++j) {
    packed[j] = user[j * static_cast<std::size_t>(stride)];
  }
}
template <class T>
void unpack_strided(T* user, const T* packed, std::size_t nelems, int stride) {
  for (std::size_t j = 0; j < nelems; ++j) {
    user[j * static_cast<std::size_t>(stride)] = packed[j];
  }
}

/// Element range of ring chunk `c` of `n` over a packed buffer: evenly
/// split, first chunks one element larger when n does not divide nelems.
constexpr std::size_t ring_chunk_lo(std::size_t nelems, int n, int c) {
  return nelems * static_cast<std::size_t>(c) / static_cast<std::size_t>(n);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Ring allreduce (reduce-scatter + allgather)
// ---------------------------------------------------------------------------

/// Reduction-to-all with the reduce_all contract (dest symmetric on every
/// PE, src may be private): the payload is split into n chunks; n-1
/// reduce-scatter steps pull the neighbour's accumulating chunk and combine,
/// then n-1 allgather steps circulate the fully-reduced chunks. Every PE
/// moves ~2B bytes total regardless of n — bandwidth-optimal, vs the
/// tree's B·log n on the critical path — at the price of 2(n-1) barriers.
///
/// Chunk c is combined along the ring in ascending rank order starting at
/// its owner, so for a fixed (inputs, n_pes) the float combine order is
/// deterministic (a different — but equally fixed — order than the tree's).
///
/// In the nbi modes every pull is a chunked nonblocking get: it charges
/// only injection at issue, the combine runs during its modeled flight, and
/// the step barrier settles to max(transfer, combine) instead of their sum.
/// Every step stays fenced (a neighbour may still be pulling from acc,
/// which is freed at the end), so the allreduce completes at return.
template <class Op, class T>
void ring_allreduce(T* dest, const T* src, std::size_t nelems, int stride,
                    Communicator& comm = world_comm(),
                    SchedMode mode = SchedMode::kBlocking) {
  (void)detail::collective_prologue(comm, /*root=*/0, stride);
  const int n = comm.n_pes();
  const int me = comm.rank();

  if (n == 1) {
    if (nelems > 0 && dest != src) {
      for (std::size_t j = 0; j < nelems; ++j) {
        const std::size_t at = j * static_cast<std::size_t>(stride);
        dest[at] = src[at];
      }
    }
    return;
  }

  PeContext& ctx = xbrtime_ctx();
  T* acc = static_cast<T*>(
      detail::collective_staging_alloc(sizeof(T), std::max<std::size_t>(nelems, 1)));
  detail::pack_strided(acc, src, nelems, stride);
  const std::size_t max_chunk = nelems / static_cast<std::size_t>(n) + 1;
  std::vector<T> land(max_chunk);
  const int prev_world = comm.world_rank((me + n - 1) % n);
  comm.barrier();  // all accumulators loaded before any neighbour pulls

  // Reduce-scatter: at step s, pull chunk (me-1-s) from the left neighbour
  // (who finished combining it last step) and fold it into our accumulator.
  detail::run_stages(comm, n - 1, /*b=*/0, detail::fenced(mode), [&](int s) {
    const int c = ((me - 1 - s) % n + n) % n;
    const std::size_t lo = detail::ring_chunk_lo(nelems, n, c);
    const std::size_t hi = detail::ring_chunk_lo(nelems, n, c + 1);
    if (hi > lo) {
      detail::hop_get(mode, land.data(), acc + lo, hi - lo, 1, prev_world);
      for (std::size_t k = 0; k < hi - lo; ++k) {
        acc[lo + k] = Op::apply(land[k], acc[lo + k]);
      }
      ctx.clock().advance(detail::kReduceOpCycles * (hi - lo));
    }
  });

  // Allgather: PE r now owns fully-reduced chunk (r+1); at step s, pull
  // chunk (me-s) — acquired by the left neighbour one step earlier.
  detail::run_stages(comm, n - 1, /*b=*/0, detail::fenced(mode), [&](int s) {
    const int c = ((me - s) % n + n) % n;
    const std::size_t lo = detail::ring_chunk_lo(nelems, n, c);
    const std::size_t hi = detail::ring_chunk_lo(nelems, n, c + 1);
    if (hi > lo) {
      detail::hop_get(mode, acc + lo, acc + lo, hi - lo, 1, prev_world);
    }
  });

  detail::unpack_strided(dest, acc, nelems, stride);
  detail::collective_staging_free(acc);
}

// ---------------------------------------------------------------------------
// Ring allgather (fcollect)
// ---------------------------------------------------------------------------

/// Fixed-count gather-to-all with the fcollect contract (dest symmetric,
/// n_pes * nelems_per_pe elements; src may be private). dest doubles as the
/// symmetric exchange buffer: each PE deposits its own segment, then n-1
/// steps circulate the segments around the ring, B/n bytes per step. Every
/// pull reads a segment the previous step's barrier settled, so kDeferred
/// leaves the last step's barrier to CollReq::wait.
template <class T>
CollReq ring_allgather(T* dest, const T* src, std::size_t nelems_per_pe,
                       Communicator& comm = world_comm(),
                       SchedMode mode = SchedMode::kBlocking) {
  (void)detail::collective_prologue(comm, /*root=*/0, /*stride=*/1);
  const int n = comm.n_pes();
  const int me = comm.rank();
  const std::size_t seg = nelems_per_pe;

  if (seg > 0 && dest + static_cast<std::size_t>(me) * seg != src) {
    xbr_put(dest + static_cast<std::size_t>(me) * seg, src, seg, 1,
            comm.world_rank(me));
  }
  comm.barrier();
  if (n == 1 || seg == 0) return CollReq{};

  const int prev_world = comm.world_rank((me + n - 1) % n);
  return detail::run_stages(comm, n - 1, /*b=*/0, mode, [&](int s) {
    // The left neighbour obtained segment (me-1-s) one step earlier.
    const auto c = static_cast<std::size_t>(((me - 1 - s) % n + n) % n);
    detail::hop_get(mode, dest + c * seg, dest + c * seg, seg, 1, prev_world);
  });
}

// ---------------------------------------------------------------------------
// Segmented ring reduce
// ---------------------------------------------------------------------------

/// Reduction with the xbgas::reduce contract (src on every PE, dest
/// meaningful only on the root), pipelined over the ring in reverse:
/// segments flow n-1 -> n-2 -> ... -> 0 (virtual ranks), each hop folding
/// the forwarder's own values in before passing the partial on. Total steps
/// (n-2) + S, like ring_broadcast. A double-buffered symmetric landing zone
/// lets step t+1's put overwrite slot (t+1)%2 while slot t%2 is still being
/// combined, so one barrier per step suffices: what landed at step t-1 is
/// folded in at the top of step t, and once more after the last step.
template <class Op, class T>
void ring_reduce(T* dest, const T* src, std::size_t nelems, int stride,
                 int root, Communicator& comm = world_comm(),
                 std::size_t segments = 0) {
  const int vr = detail::collective_prologue(comm, root, stride);
  const int n = comm.n_pes();

  if (n == 1) {
    if (nelems > 0 && dest != src) {
      for (std::size_t j = 0; j < nelems; ++j) {
        const std::size_t at = j * static_cast<std::size_t>(stride);
        dest[at] = src[at];
      }
    }
    return;
  }

  PeContext& ctx = xbrtime_ctx();
  const std::size_t nseg = std::min(
      segments == 0 ? ring_default_segments(nelems) : segments,
      std::max<std::size_t>(nelems, 1));
  const std::size_t max_seg = nelems / nseg + 1;

  T* acc = static_cast<T*>(
      detail::collective_staging_alloc(sizeof(T), std::max<std::size_t>(nelems, 1)));
  T* land = static_cast<T*>(
      detail::collective_staging_alloc(sizeof(T), 2 * max_seg));
  detail::pack_strided(acc, src, nelems, stride);
  comm.barrier();  // accumulators loaded, landing zones allocated everywhere

  const int to_world =
      vr > 0 ? comm.world_rank(logical_rank(vr - 1, root, n)) : -1;
  const auto seg_lo = [&](std::size_t s) { return nelems * s / nseg; };
  // Fold in the segment that landed in slot t%2 at step t, if any.
  const auto fold = [&](int t) {
    const int s = t - (n - 2 - vr);
    if (vr == n - 1 || s < 0 || s >= static_cast<int>(nseg)) return;
    const std::size_t lo = seg_lo(static_cast<std::size_t>(s));
    const std::size_t hi = seg_lo(static_cast<std::size_t>(s) + 1);
    const T* slot = land + static_cast<std::size_t>(t % 2) * max_seg;
    for (std::size_t k = 0; k < hi - lo; ++k) {
      acc[lo + k] = Op::apply(acc[lo + k], slot[k]);
    }
    ctx.clock().advance(detail::kReduceOpCycles * (hi - lo));
  };

  const int total_steps = (n - 2) + static_cast<int>(nseg);
  detail::run_stages(comm, total_steps, /*b=*/0, SchedMode::kBlocking,
                     [&](int t) {
    fold(t - 1);
    // Virtual rank v forwards segment t - (n-1-v) toward the root — the
    // one it finished combining above (the tail PE sends its own values).
    const int s = t - (n - 1 - vr);
    if (vr > 0 && s >= 0 && s < static_cast<int>(nseg)) {
      const std::size_t lo = seg_lo(static_cast<std::size_t>(s));
      const std::size_t hi = seg_lo(static_cast<std::size_t>(s) + 1);
      if (hi > lo) {
        xbr_put(land + static_cast<std::size_t>(t % 2) * max_seg, acc + lo,
                hi - lo, 1, to_world);
      }
    }
  });
  fold(total_steps - 1);  // the root's final segment arrives on the last step

  if (vr == 0) {
    detail::unpack_strided(dest, acc, nelems, stride);
  }
  detail::collective_staging_free(land);
  detail::collective_staging_free(acc);
}

}  // namespace xbgas
