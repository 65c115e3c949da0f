#pragma once

// Multi-level hierarchical collectives: an arbitrary-depth level stack
// (paper §7: "location aware communication optimization using the xBGAS
// OLB", following XHC-OpenMPI's per-level design). A two-level broadcast is
// hier_broadcast with HierShape{{group}, 2, 0}.
//
// A HierShape is a strictly-ascending divisibility chain of group widths
// [g_0 < g_1 < ... < g_top], each dividing the next and g_top dividing (and
// strictly less than) the world size. PEs whose world rank is ≡ 0 modulo a
// level's sub-group width are that level's *leaders*; the stack of teams is
//
//   top:      Team(0, g_top, n/g_top)             — one leader per g_top PEs
//   level i:  Team((me/g_i)*g_i, g_{i-1}, g_i/g_{i-1})   (g_{-1} := 1)
//
// so a broadcast crosses the expensive outer links once per outer group and
// fans out over progressively cheaper links, and a reduce runs the mirror
// bottom-up. Every level runs the k-nomial walk (collectives.hpp) with a
// tunable radix (radix 2 is the paper's binomial tree), and synchronization
// is scoped to the level's Team — no world barriers, so disjoint subtrees
// of the hierarchy proceed independently.
//
// Happens-before is carried by the Team machinery: the constructor
// rendezvous plus per-stage team barriers chain transitively through the
// leader ranks, which is exactly the order the data dependencies follow.
// The root→top-leader handoff uses a two-member Team for the same reason
// (the put is ordered by the pair's barrier, and the root never writes its
// own dest — that write belongs to its innermost-level sender).
//
// Every entry point takes the SchedMode its caller picked (collectives.hpp).
// kPipelined issues internal hops as chunked nonblocking transfers (chunk
// size tunable); kDeferred also leaves the innermost level's final stage
// unfenced, so the nbi entry points return a live CollReq whose wait() is
// the fence. The outer levels of a deferred call run kPipelined.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/team.hpp"

namespace xbgas {

/// Shape of the level stack plus the per-level transfer tuning knobs.
/// `groups` empty means flat (depth 1): one k-nomial tree over the world.
struct HierShape {
  std::vector<int> groups;  ///< ascending widths; see validate_hier_shape
  int radix = 2;            ///< k-nomial tree degree at every level
  std::size_t chunk = 0;    ///< pipelined chunk elements (0 = heuristic)
};

/// Throws xbgas::Error unless `shape` is valid for an n-PE world: radix ≥ 2
/// and `groups` (possibly empty) strictly ascending with entries ≥ 2, each
/// dividing the next, the last dividing n and strictly less than n.
void validate_hier_shape(const HierShape& shape, int n_pes);

namespace detail {

/// One level of the stack as seen by world rank `me`. Teams are
/// (start, stride, size) in world ranks; `member` is whether `me`
/// participates at this level.
struct HierLevel {
  int start;
  int stride;
  int size;
  bool member;
};

/// The level stack for `me`, ordered top (widest links) to innermost.
/// `groups` must already be validated and non-empty.
std::vector<HierLevel> hier_levels(const std::vector<int>& groups, int n_pes,
                                   int me);

}  // namespace detail

// ---------------------------------------------------------------------------
// Multi-level entry points (world communicator; same contracts as the flat
// collectives over the whole world)
// ---------------------------------------------------------------------------

/// Hierarchical broadcast. In kDeferred mode the innermost level's final
/// stage is left unfenced and the returned request (on the world
/// communicator) is live; otherwise it is complete.
template <class T>
CollReq hier_broadcast(T* dest, const T* src, std::size_t nelems, int stride,
                       int root, const HierShape& shape,
                       SchedMode mode = SchedMode::kBlocking) {
  PeContext& ctx = xbrtime_ctx();
  const int n = ctx.n_pes();
  validate_hier_shape(shape, n);
  const CollReq req =
      mode == SchedMode::kDeferred ? CollReq{&world_comm()} : CollReq{};
  if (shape.groups.empty()) {
    detail::knomial_broadcast(dest, src, nelems, stride, root, shape.radix,
                              world_comm(), mode, shape.chunk);
    return req;
  }

  const int me = ctx.rank();
  const int g_top = shape.groups.back();
  const int top_leader = (root / g_top) * g_top;

  // Handoff: the payload enters the level stack at the root's top-level
  // leader. The root does NOT write its own dest — that write belongs to
  // its innermost-level sender (avoiding a racy double write); instead it
  // puts src straight into the leader's dest, ordered by the pair barrier.
  if (me == root || me == top_leader) {
    if (root == top_leader) {
      if (me == root && nelems > 0 && dest != src) {
        xbr_put(dest, src, nelems, stride, me);
      }
    } else {
      Team pair(top_leader, root - top_leader, 2);
      if (me == root && nelems > 0) {
        xbr_put(dest, src, nelems, stride, top_leader);
      }
      pair.barrier();  // leader's dest primed before it fans out
    }
  }

  const auto levels = detail::hier_levels(shape.groups, n, me);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const auto& lv = levels[l];
    if (!lv.member) continue;
    const bool innermost = l + 1 == levels.size();
    Team team(lv.start, lv.stride, lv.size);
    const int team_root = l == 0 ? top_leader / g_top : 0;
    detail::knomial_broadcast(dest, dest, nelems, stride, team_root,
                              shape.radix, team,
                              innermost ? mode : detail::fenced(mode),
                              shape.chunk);
  }
  return req;
}

/// Hierarchical reduction: packed partials climb the level stack bottom-up;
/// `dest` is meaningful only on `root` (and may be private). Any mode other
/// than kBlocking pipelines the hops; the reduce completes at return.
template <class Op, class T>
void hier_reduce(T* dest, const T* src, std::size_t nelems, int stride,
                 int root, const HierShape& shape,
                 SchedMode mode = SchedMode::kBlocking) {
  PeContext& ctx = xbrtime_ctx();
  const int n = ctx.n_pes();
  validate_hier_shape(shape, n);
  const int me = ctx.rank();

  if (shape.groups.empty()) {
    detail::knomial_reduce<Op>(dest, src, nelems, stride, root, shape.radix,
                               world_comm(), mode, shape.chunk);
    return;
  }

  T* part = static_cast<T*>(detail::collective_staging_alloc(
      sizeof(T), std::max<std::size_t>(nelems, 1)));
  for (std::size_t j = 0; j < nelems; ++j) {
    part[j] = src[j * static_cast<std::size_t>(stride)];
  }

  const int g_top = shape.groups.back();
  const int top_leader = (root / g_top) * g_top;
  const auto levels = detail::hier_levels(shape.groups, n, me);
  for (std::size_t l = levels.size(); l-- > 0;) {
    const auto& lv = levels[l];
    if (!lv.member) continue;
    Team team(lv.start, lv.stride, lv.size);
    const int team_root = l == 0 ? top_leader / g_top : 0;
    detail::knomial_reduce_part<Op>(part, nelems, team_root, shape.radix,
                                    team, mode, shape.chunk);
  }

  // Handoff: combined result moves from the top-level leader to the root's
  // symmetric part (identical staging histories keep the offsets aligned),
  // bracketed by the pair's barriers for both hazard directions.
  if (root != top_leader && (me == root || me == top_leader)) {
    Team pair(top_leader, root - top_leader, 2);
    if (me == top_leader && nelems > 0) {
      xbr_put(part, part, nelems, 1, root);
    }
    pair.barrier();  // root reads its part only after the leader's put
  }
  if (me == root) {
    for (std::size_t j = 0; j < nelems; ++j) {
      dest[j * static_cast<std::size_t>(stride)] = part[j];
    }
  }
  detail::collective_staging_free(part);
}

/// Hierarchical allreduce: reduce to world rank 0 then broadcast back down.
template <class Op, class T>
CollReq hier_reduce_all(T* dest, const T* src, std::size_t nelems, int stride,
                        const HierShape& shape,
                        SchedMode mode = SchedMode::kBlocking) {
  hier_reduce<Op>(dest, src, nelems, stride, /*root=*/0, shape,
                  detail::fenced(mode));
  return hier_broadcast(dest, dest, nelems, stride, /*root=*/0, shape, mode);
}

/// Hierarchical fcollect: per-PE blocks climb the level stack (block gather
/// to world rank 0), then the concatenation broadcasts back down.
template <class T>
CollReq hier_fcollect(T* dest, const T* src, std::size_t nelems_per_pe,
                      const HierShape& shape,
                      SchedMode mode = SchedMode::kBlocking) {
  PeContext& ctx = xbrtime_ctx();
  const int n = ctx.n_pes();
  validate_hier_shape(shape, n);
  const int me = ctx.rank();
  const std::size_t per = nelems_per_pe;
  const std::size_t total = per * static_cast<std::size_t>(n);

  if (per > 0 && dest + static_cast<std::size_t>(me) * per != src) {
    xbr_put(dest + static_cast<std::size_t>(me) * per, src, per, 1, me);
  }

  if (shape.groups.empty()) {
    detail::knomial_gather_blocks(dest, per, /*start=*/0, /*sub=*/1,
                                  shape.radix, world_comm());
  } else {
    const auto levels = detail::hier_levels(shape.groups, n, me);
    for (std::size_t l = levels.size(); l-- > 0;) {
      const auto& lv = levels[l];
      if (!lv.member) continue;
      Team team(lv.start, lv.stride, lv.size);
      detail::knomial_gather_blocks(dest, per, lv.start, lv.stride,
                                    shape.radix, team);
    }
  }
  return hier_broadcast(dest, dest, total, /*stride=*/1, /*root=*/0, shape,
                        mode);
}

}  // namespace xbgas
