#pragma once

// Linear (flat) collective baselines.
//
// The paper motivates the binomial tree against the obvious alternative —
// the root talking to every PE directly (§4.1-§4.2). That flat pattern is
// the same k-nomial tree with radix n: one stage in which the root's edges
// reach every other PE. Both baselines run on the k-nomial walk
// (collectives.hpp) with the same xbr_put/xbr_get primitives and symmetry
// requirements as the tree, so the A1 ablation bench compares the two
// shapes like-for-like: the tree costs O(log N) serialized steps at the
// root, the linear form O(N). On one PE the radix-n tree has no stage; the
// flat pattern still fences once, as it always has.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "collectives/collectives.hpp"

namespace xbgas {

template <class T>
void linear_broadcast(T* dest, const T* src, std::size_t nelems, int stride,
                      int root, Communicator& comm = world_comm()) {
  const int n = comm.n_pes();
  detail::knomial_broadcast(dest, src, nelems, stride, root,
                            /*radix=*/std::max(n, 2), comm);
  if (n == 1) comm.barrier();
}

/// The root folds each peer's strided `src` into its own dest, pulling it
/// straight into a private landing buffer: no symmetric staging, unlike
/// knomial_reduce.
template <class Op, class T>
void linear_reduce(T* dest, const T* src, std::size_t nelems, int stride,
                   int root, Communicator& comm = world_comm()) {
  const int vr = detail::collective_prologue(comm, root, stride);
  const int n = comm.n_pes();
  const auto at = [stride](std::size_t j) {
    return j * static_cast<std::size_t>(stride);
  };

  comm.barrier();  // every PE's src must be ready before the root pulls
  for (std::size_t j = 0; j < nelems && vr == 0; ++j) dest[at(j)] = src[at(j)];
  std::vector<T> l_buff(vr == 0 ? detail::strided_span(nelems, stride) : 0);
  PeContext& ctx = xbrtime_ctx();
  // The stage's barrier: peers may reuse src only after the root is done.
  detail::knomial_walk(
      /*top_down=*/false, n, /*radix=*/std::max(n, 2), vr, comm,
      SchedMode::kBlocking, [&](int peer, int) {
        xbr_get(l_buff.data(), src, nelems, stride,
                comm.world_rank(logical_rank(peer, root, n)));
        for (std::size_t j = 0; j < nelems; ++j) {
          dest[at(j)] = Op::apply(dest[at(j)], l_buff[at(j)]);
        }
        ctx.clock().advance(detail::kReduceOpCycles * nelems);
      });
  if (n == 1) comm.barrier();
}

}  // namespace xbgas
