#pragma once

// Communication-schedule enumeration for k-nomial trees (paper §4.2,
// Figure 3, generalized to radix k following shcoll's runtime-configurable
// tree degree). Pure functions of (n_pes, radix). The tree is encoded once,
// in the per-PE edge functions (detail::knomial_broadcast_sends /
// knomial_reduce_pulls): the k-nomial walk (collectives.hpp) asks only for
// the calling PE's own edges, which cost O(radix * log n) instead of O(n),
// and the full edge lists are every vrank's own edges in execution order.
// The full lists are used by the Figure-3 bench to print the stage-by-stage
// tree, by tests to assert the edge set, by the topology ablation (A2) to
// measure per-stage link load without running data through the runtime,
// and by the collective policy to find the tree edges a down link cuts.
//
// The binomial tree of the paper is exactly the radix-2 special case:
// broadcast_schedule(n) == knomial_broadcast_schedule(n, 2), edge for edge.

#include <vector>

namespace xbgas {

struct TreeEdge {
  int stage;       ///< loop iteration (0-based, in execution order)
  int from_vrank;  ///< data holder (broadcast: sender; reduce: getter's peer)
  int to_vrank;    ///< data receiver (broadcast: put target; reduce: getter)

  bool operator==(const TreeEdge&) const = default;
};

/// Edges of the top-down (put-based, recursive-halving) schedule used by
/// broadcast and scatter: stage s covers loop index i = L-1-s.
std::vector<TreeEdge> broadcast_schedule(int n_pes);

/// Edges of the bottom-up (get-based, recursive-doubling) schedule used by
/// reduce and gather: stage s covers loop index i = s; from_vrank is the
/// child whose data moves to to_vrank.
std::vector<TreeEdge> reduce_schedule(int n_pes);

/// Number of stages, ceil(log2(n_pes)).
int schedule_stages(int n_pes);

// -- k-nomial generalization ------------------------------------------------

/// Number of stages of the radix-k tree: smallest L with radix^L >= n_pes.
int knomial_stages(int n_pes, int radix);

/// Top-down k-nomial broadcast: at stage s (step = radix^(L-1-s)) every
/// holder vrank v ≡ 0 (mod radix*step) sends to v + j*step for
/// j = 1..radix-1, skipping targets >= n_pes. Edges are emitted in
/// execution order (stage, then sender vrank, then j). radix == 2
/// reproduces broadcast_schedule exactly.
std::vector<TreeEdge> knomial_broadcast_schedule(int n_pes, int radix);

/// Bottom-up mirror: at stage s (step = radix^s) every parent vrank
/// v ≡ 0 (mod radix*step) pulls the accumulated subtrees of v + j*step for
/// j = 1..radix-1. radix == 2 reproduces reduce_schedule exactly.
std::vector<TreeEdge> knomial_reduce_schedule(int n_pes, int radix);

namespace detail {

/// The edges of knomial_broadcast_schedule(n_pes, radix) that `vrank`
/// sends (from_vrank == vrank), in the same order, without building the
/// others.
std::vector<TreeEdge> knomial_broadcast_sends(int n_pes, int radix,
                                              int vrank);

/// The edges of knomial_reduce_schedule(n_pes, radix) that `vrank` pulls
/// (to_vrank == vrank), in the same order, without building the others.
std::vector<TreeEdge> knomial_reduce_pulls(int n_pes, int radix, int vrank);

}  // namespace detail

}  // namespace xbgas
