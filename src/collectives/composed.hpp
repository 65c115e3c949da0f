#pragma once

// Composed collectives (paper §4.7 & §7).
//
// The paper notes its four binomial-tree primitives "can be combined
// together to accomplish the semantics of several more complex operations"
// and that OpenSHMEM-style result distribution "must instead be accomplished
// through the use of a broadcast operation following the original call".
// These are those compositions, plus the personalized all-to-all named as
// future work (§7):
//
//   reduce_all  — reduction whose result lands on every PE (reduce+bcast)
//   collect     — variable-count allgather (gather+bcast)
//   fcollect    — fixed-count allgather
//   alltoall    — personalized all-to-all exchange (pairwise puts)
//
// reduce_all and fcollect route through the CollectivePolicy dispatcher
// (policy.hpp), so large payloads automatically switch from the composed
// tree form to the bandwidth-optimal ring algorithms.

#include <climits>
#include <cstddef>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/policy.hpp"

namespace xbgas {

/// Reduction-to-all: `dest` must be symmetric on every PE and receives the
/// full reduction result everywhere. Algorithm chosen by the active
/// CollectivePolicy (tree reduce+bcast, or ring reduce-scatter+allgather).
template <class Op, class T>
void reduce_all(T* dest, const T* src, std::size_t nelems, int stride,
                Communicator& comm = world_comm()) {
  dispatch_reduce_all<Op>(dest, src, nelems, stride, comm);
}

/// Variable-count gather-to-all (OpenSHMEM `collect`): every PE contributes
/// pe_msgs[rank] elements from src; every PE's symmetric `dest` receives the
/// full concatenation laid out by pe_disp.
template <class T>
void collect(T* dest, const T* src, const int* pe_msgs, const int* pe_disp,
             std::size_t nelems, Communicator& comm = world_comm()) {
  gather(dest, src, pe_msgs, pe_disp, nelems, /*root=*/0, comm);
  broadcast(dest, dest, nelems, /*stride=*/1, /*root=*/0, comm);
}

/// Fixed-count gather-to-all (OpenSHMEM `fcollect`): every PE contributes
/// exactly `nelems_per_pe` elements; dest must hold n_pes * nelems_per_pe.
/// Algorithm chosen by the active CollectivePolicy (gather+bcast tree or
/// ring allgather). The total element count must fit in int because the
/// gather path's per-PE displacements are int (OpenSHMEM ABI).
template <class T>
void fcollect(T* dest, const T* src, std::size_t nelems_per_pe,
              Communicator& comm = world_comm()) {
  const int n = comm.n_pes();
  // Displacements are computed in size_t; r * int(nelems_per_pe) in int
  // arithmetic silently overflowed for large per-PE counts.
  const std::size_t total = nelems_per_pe * static_cast<std::size_t>(n);
  XBGAS_CHECK(nelems_per_pe <= total, "fcollect: total element count overflow");
  XBGAS_CHECK(total <= static_cast<std::size_t>(INT_MAX),
              "fcollect: total element count exceeds INT_MAX");
  dispatch_fcollect(dest, src, nelems_per_pe, comm);
}

/// Personalized all-to-all: the segment src[d*nelems_per_pair ..) of every
/// PE lands at dest[me*nelems_per_pair ..) of PE d. `dest` must be
/// symmetric; src may be private. One pairwise-shifted put per peer so no
/// destination is hit by every sender in the same order.
template <class T>
void alltoall(T* dest, const T* src, std::size_t nelems_per_pair,
              Communicator& comm = world_comm()) {
  (void)detail::collective_prologue(comm, /*root=*/0, /*stride=*/1);
  const int n = comm.n_pes();
  const int me = comm.rank();
  comm.barrier();  // dest buffers ready everywhere before the exchange
  if (nelems_per_pair > 0) {
    const std::size_t seg = nelems_per_pair;
    xbr_put(dest + static_cast<std::size_t>(me) * seg,
            src + static_cast<std::size_t>(me) * seg, seg, 1,
            comm.world_rank(me));
    for (int k = 1; k < n; ++k) {
      const int peer = (me + k) % n;
      xbr_put(dest + static_cast<std::size_t>(me) * seg,
              src + static_cast<std::size_t>(peer) * seg, seg, 1,
              comm.world_rank(peer));
    }
  }
  comm.barrier();
}

}  // namespace xbgas
