#pragma once

// The tree collectives (paper §4, Algorithms 1-4), the stage loop every
// collective schedule in the library runs on, and the k-nomial walk that
// runs every tree schedule.
//
// All four share the same skeleton: fetch n_pes and the calling PE's rank,
// remap to virtual ranks so the root is virtual rank 0 (vrank.hpp), then
// run the tree's stages with a barrier after every stage. That skeleton is
// written once: detail::run_stages is the stage loop (stage events, the
// PE's hops, the closing barrier), and detail::knomial_walk hands each of
// the calling PE's own k-nomial edges to a per-collective hop. Broadcast and
// scatter walk the tree top-down with put; reduce and gather walk it
// bottom-up with get. Algorithms 1-4 are the radix-2 walk, whose edges are
// exactly the paper's ceil(log2 n) masked stages (tests/collectives/
// schedule_test derives them from the mask recurrence); edges to virtual
// ranks >= n_pes are never generated, which is what the paper's
// `vir_rank < vir_part` guard achieves when n_pes is not a power of two.
// Scatter and gather move one subtree's slice of a virtually reordered
// buffer per edge.
//
// Symmetry requirements (paper §4.3-§4.6):
//   broadcast: dest symmetric on every PE; src meaningful (and possibly
//              private) only on the root.
//   reduce:    src symmetric on every PE; dest meaningful only on the root
//              and may be private. Internally stages through a symmetric
//              packed partial and a private landing buffer so no user data
//              is overwritten.
//   scatter:   src meaningful only on root; dest private OK. Staged through
//              a symmetric buffer reordered by *virtual* rank so that every
//              subtree's data is contiguous and one put per edge suffices
//              even with a non-zero root (§4.5).
//   gather:    mirror of scatter (§4.6).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "collectives/comm.hpp"
#include "collectives/ops.hpp"
#include "collectives/schedule.hpp"
#include "collectives/vrank.hpp"
#include "common/error.hpp"
#include "xbrtime/rma.hpp"

namespace xbgas {

namespace detail {

/// Cycles charged per element for the reduction combine loop.
inline constexpr std::uint64_t kReduceOpCycles = 3;

/// Allocate a symmetric staging buffer of `count` elements of `elem_size`
/// from the runtime's LIFO staging region (no synchronization; participants
/// perform identical sequences, so offsets stay symmetric). Throws on
/// exhaustion.
void* collective_staging_alloc(std::size_t elem_size, std::size_t count);

/// Release the most recent staging buffer (strict LIFO).
void collective_staging_free(void* p);

/// Buffer span in elements for an (nelems, stride) access pattern.
constexpr std::size_t strided_span(std::size_t nelems, int stride) {
  return nelems == 0 ? 0
                     : (nelems - 1) * static_cast<std::size_t>(stride) + 1;
}

/// Validate common collective arguments; returns this PE's virtual rank.
int collective_prologue(const Communicator& comm, int root, int stride);

/// adj_disp (paper §4.5): element displacement of each virtual rank's
/// segment in the virtually-reordered staging buffer; adj[n] = total.
std::vector<std::size_t> adjusted_displacements(const Communicator& comm,
                                                const int* pe_msgs, int root);

// Defined in nbi.cpp (observability: coll.pipeline.*).
void note_pipeline_chunks(std::size_t n);
void note_pipeline_wait();

}  // namespace detail

// ---------------------------------------------------------------------------
// Schedule modes and nbi requests
// ---------------------------------------------------------------------------

/// How a collective schedule issues its hops. The public entry the caller
/// used picks it: dispatch_* and the tuner run kBlocking, xbr_*_nbi runs
/// kDeferred, and a deferred schedule runs its inner parts (the outer
/// hierarchy levels, the reduce half of an allreduce) kPipelined.
enum class SchedMode : std::uint8_t {
  kBlocking,   ///< whole-payload xbr_put/xbr_get; every stage fenced
  kPipelined,  ///< chunked nonblocking hops; every stage fenced
  kDeferred,   ///< kPipelined, but the final stage's fence is CollReq::wait
};

/// Handle to an in-flight nbi collective. Value-semantic; the default
/// instance is already complete. wait() completes ALL of the calling PE's
/// outstanding nonblocking traffic (it is a quiet) and synchronizes the
/// communicator — after it returns, every PE's result buffer is valid and
/// its XbrSan zone is closed.
class CollReq {
 public:
  CollReq() = default;
  explicit CollReq(Communicator* comm)
      : comm_(comm), done_(comm == nullptr) {}

  bool done() const { return done_; }

  void wait() {
    if (!waited_) {
      // Counted on the first wait() per handle — including already-complete
      // requests, so coll.pipeline.waits tracks the SPMD discipline (one
      // wait per issued collective), not which schedules happen to defer
      // their final fence.
      waited_ = true;
      detail::note_pipeline_wait();
    }
    if (done_) return;
    done_ = true;
    comm_->barrier();  // barriers are full fences: quiet + rendezvous
  }

 private:
  Communicator* comm_ = nullptr;
  bool done_ = true;
  bool waited_ = false;
};

namespace detail {

/// The mode for a part of a schedule that must complete before the next
/// part starts: kDeferred becomes kPipelined, the others stay.
constexpr SchedMode fenced(SchedMode mode) {
  return mode == SchedMode::kDeferred ? SchedMode::kPipelined : mode;
}

/// Chunk count for pipelined internal hops. With no explicit chunk size the
/// heuristic is one chunk per 512 elements capped at 8 (small messages stay
/// one transfer, huge ones don't drown in injection costs); an explicit
/// `chunk_elems` — the tuner's knob — is honored up to 64 chunks.
constexpr std::size_t pipeline_chunks(std::size_t nelems,
                                      std::size_t chunk_elems = 0) {
  return chunk_elems == 0
             ? std::clamp<std::size_t>(nelems / 512, 1, 8)
             : std::clamp<std::size_t>((nelems + chunk_elems - 1) /
                                           chunk_elems,
                                       1, 64);
}

/// One internal pipelined hop: the (nelems, stride) transfer split into
/// pipeline_chunks() nonblocking pieces (NbTrack::kInternal — timing only,
/// the enclosing collective owns the hazard contract). Puts when
/// `remote_is_dest`, gets otherwise.
template <class T>
void nbi_chunks(T* dest, const T* src, std::size_t nelems, int stride,
                int world_pe, bool remote_is_dest, std::size_t chunk_elems) {
  const std::size_t nc = pipeline_chunks(nelems, chunk_elems);
  for (std::size_t c = 0; c < nc; ++c) {
    const std::size_t lo = nelems * c / nc;
    const std::size_t hi = nelems * (c + 1) / nc;
    if (hi > lo) {
      const std::size_t at = lo * static_cast<std::size_t>(stride);
      rma_transfer(remote_is_dest ? "xbr_put_nb" : "xbr_get_nb", dest + at,
                   src + at, sizeof(T), hi - lo, stride, world_pe,
                   remote_is_dest, NbTrack::kInternal);
    }
  }
  note_pipeline_chunks(nc);
}

/// One schedule hop in `mode`: a whole-payload put/get when blocking,
/// chunked nonblocking transfers otherwise.
template <class T>
void hop_put(SchedMode mode, T* dest, const T* src, std::size_t nelems,
             int stride, int world_pe, std::size_t chunk = 0) {
  if (mode == SchedMode::kBlocking) {
    xbr_put(dest, src, nelems, stride, world_pe);
  } else {
    nbi_chunks(dest, src, nelems, stride, world_pe, /*remote_is_dest=*/true,
               chunk);
  }
}
template <class T>
void hop_get(SchedMode mode, T* dest, const T* src, std::size_t nelems,
             int stride, int world_pe, std::size_t chunk = 0) {
  if (mode == SchedMode::kBlocking) {
    xbr_get(dest, src, nelems, stride, world_pe);
  } else {
    nbi_chunks(dest, src, nelems, stride, world_pe, /*remote_is_dest=*/false,
               chunk);
  }
}

// ---------------------------------------------------------------------------
// The stage loop and the k-nomial walk (any radix, any Communicator)
// ---------------------------------------------------------------------------

/// The stage loop every collective schedule runs on. Stage s records
/// kStageBegin (a = s, b = `b`), issues the calling PE's hops for the stage
/// (`hops(s)`), closes the stage with a barrier over `comm` and records
/// kStageEnd. A kDeferred schedule leaves its last barrier to CollReq::wait,
/// so only a deferred schedule with at least one stage returns a live
/// request. Trees pass b = radix, rings b = 0.
template <class Hops>
CollReq run_stages(Communicator& comm, int stages, int b, SchedMode mode,
                   Hops&& hops) {
  PeContext& ctx = xbrtime_ctx();
  const bool defer = mode == SchedMode::kDeferred;
  for (int s = 0; s < stages; ++s) {
    ctx.trace().record(EventKind::kStageBegin, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(b));
    hops(s);
    if (!(defer && s == stages - 1)) comm.barrier();
    ctx.trace().record(EventKind::kStageEnd, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(b));
  }
  return defer && stages > 0 ? CollReq{&comm} : CollReq{};
}

/// The k-nomial walk: runs the radix-`radix` tree over `n` virtual ranks on
/// run_stages and calls `hop(peer_vrank, width)` once per edge of the
/// calling PE (virtual rank `vr`), in order. Top-down the edges are the
/// PE's knomial_broadcast_sends and `width` = radix^(stages-1-s), the
/// width of the receiver's subtree; bottom-up they are its
/// knomial_reduce_pulls and `width` = radix^s, the width the child has
/// accumulated. Subtrees are clipped at n by the hop.
template <class Hop>
CollReq knomial_walk(bool top_down, int n, int radix, int vr,
                     Communicator& comm, SchedMode mode, Hop&& hop) {
  const auto edges = top_down ? knomial_broadcast_sends(n, radix, vr)
                              : knomial_reduce_pulls(n, radix, vr);
  const int stages = knomial_stages(n, radix);
  long long width = 1;
  for (int s = 1; top_down && s < stages; ++s) width *= radix;
  std::size_t e = 0;
  return run_stages(comm, stages, radix, mode, [&](int s) {
    for (; e < edges.size() && edges[e].stage == s; ++e) {
      hop(top_down ? edges[e].to_vrank : edges[e].from_vrank,
          static_cast<int>(width));
    }
    width = top_down ? width / radix : width * radix;
  });
}

/// Top-down k-nomial broadcast over `comm` with the xbgas::broadcast
/// contract. In kDeferred mode the final stage's transfers are left
/// unfenced and the returned request is live (n > 1); otherwise the
/// request is complete.
template <class T>
CollReq knomial_broadcast(T* dest, const T* src, std::size_t nelems,
                          int stride, int root, int radix, Communicator& comm,
                          SchedMode mode = SchedMode::kBlocking,
                          std::size_t chunk = 0) {
  const int vr = collective_prologue(comm, root, stride);
  const int n = comm.n_pes();
  // The root's own dest copy (implicit in the paper: dest holds the
  // broadcast values on *each* PE, including the root).
  if (vr == 0 && nelems > 0 && dest != src) {
    xbr_put(dest, src, nelems, stride, comm.world_rank(comm.rank()));
  }
  // The root sends straight from src; later senders forward from dest.
  const T* from = (vr == 0) ? src : dest;
  return knomial_walk(/*top_down=*/true, n, radix, vr, comm, mode,
                      [&](int to, int) {
                        if (nelems == 0) return;
                        hop_put(mode, dest, from, nelems, stride,
                                comm.world_rank(logical_rank(to, root, n)),
                                chunk);
                      });
}

/// Bottom-up k-nomial reduction over a symmetric CONTIGUOUS partial buffer
/// (each PE's `part` holds its packed contribution on entry; the team's
/// vrank-0 PE holds the combined result on return). Pipelined gets land
/// host-side at issue, so the combine overlaps the modeled flight and each
/// stage settles to max(transfer, combine) at its barrier. A reduce always
/// fences its final stage: the parent needs every child's part.
template <class Op, class T>
void knomial_reduce_part(T* part, std::size_t nelems, int root, int radix,
                         Communicator& comm,
                         SchedMode mode = SchedMode::kBlocking,
                         std::size_t chunk = 0) {
  const int vr = collective_prologue(comm, root, /*stride=*/1);
  const int n = comm.n_pes();
  comm.barrier();  // all parts settled before any parent pulls
  PeContext& ctx = xbrtime_ctx();
  std::vector<T> land(nelems);
  knomial_walk(/*top_down=*/false, n, radix, vr, comm, fenced(mode),
               [&](int child, int) {
                 if (nelems == 0) return;
                 hop_get(mode, land.data(), part, nelems, 1,
                         comm.world_rank(logical_rank(child, root, n)), chunk);
                 for (std::size_t j = 0; j < nelems; ++j) {
                   part[j] = Op::apply(part[j], land[j]);
                 }
                 ctx.clock().advance(kReduceOpCycles * nelems);
               });
}

/// k-nomial reduction with the xbgas::reduce contract (dest meaningful on
/// the comm-rank `root` only, src untouched): pack into a symmetric
/// contiguous partial, climb the tree, unpack at the root.
template <class Op, class T>
void knomial_reduce(T* dest, const T* src, std::size_t nelems, int stride,
                    int root, int radix, Communicator& comm,
                    SchedMode mode = SchedMode::kBlocking,
                    std::size_t chunk = 0) {
  (void)collective_prologue(comm, root, stride);  // before any staging
  T* part = static_cast<T*>(
      collective_staging_alloc(sizeof(T), std::max<std::size_t>(nelems, 1)));
  for (std::size_t j = 0; j < nelems; ++j) {
    part[j] = src[j * static_cast<std::size_t>(stride)];
  }
  knomial_reduce_part<Op>(part, nelems, root, radix, comm, mode, chunk);
  if (comm.rank() == root) {
    for (std::size_t j = 0; j < nelems; ++j) {
      dest[j * static_cast<std::size_t>(stride)] = part[j];
    }
  }
  collective_staging_free(part);
}

/// Bottom-up k-nomial block gather for fcollect. Team rank r is world PE
/// `start + r*sub` and enters holding the `sub` world-rank blocks
/// [start + r*sub, start + (r+1)*sub) contiguously in its own dest; team
/// rank 0 exits holding all `size*sub` blocks. Gets are self-symmetric
/// (dest offset == src offset), mirroring gather (Algorithm 4).
template <class T>
void knomial_gather_blocks(T* dest, std::size_t per, int start, int sub,
                           int radix, Communicator& comm) {
  const int m = comm.n_pes();
  comm.barrier();  // lower-level accumulations settled before pulls
  // Rooted at team rank 0: no vrank remap.
  knomial_walk(/*top_down=*/false, m, radix, comm.rank(), comm,
               SchedMode::kBlocking, [&](int child, int width) {
                 if (per == 0) return;
                 const auto blocks = static_cast<std::size_t>(
                     std::min(width, m - child) * sub);
                 const std::size_t off =
                     static_cast<std::size_t>(start + child * sub) * per;
                 xbr_get(dest + off, dest + off, blocks * per, 1,
                         comm.world_rank(child));
               });
}

/// The element range [lo, hi) of the virtually reordered staging buffer
/// that holds the subtree of virtual ranks [v, min(v + width, n)) — what
/// one scatter or gather edge moves.
inline std::pair<std::size_t, std::size_t> subtree_span(
    const std::vector<std::size_t>& adj, int v, int width, int n) {
  return {adj[static_cast<std::size_t>(v)],
          adj[static_cast<std::size_t>(std::min(v + width, n))]};
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Broadcast (Algorithm 1) and reduction (Algorithm 2): the radix-2 tree
// ---------------------------------------------------------------------------

template <class T>
void broadcast(T* dest, const T* src, std::size_t nelems, int stride, int root,
               Communicator& comm = world_comm()) {
  detail::knomial_broadcast(dest, src, nelems, stride, root, /*radix=*/2,
                            comm);
}

template <class Op, class T>
void reduce(T* dest, const T* src, std::size_t nelems, int stride, int root,
            Communicator& comm = world_comm()) {
  detail::knomial_reduce<Op>(dest, src, nelems, stride, root, /*radix=*/2,
                             comm);
}

// ---------------------------------------------------------------------------
// Scatter (Algorithm 3) and gather (Algorithm 4): the radix-2 walk over a
// virtually reordered staging buffer
// ---------------------------------------------------------------------------

template <class T>
void scatter(T* dest, const T* src, const int* pe_msgs, const int* pe_disp,
             std::size_t nelems, int root, Communicator& comm = world_comm()) {
  const int vr = detail::collective_prologue(comm, root, /*stride=*/1);
  const int n = comm.n_pes();
  const int me = comm.rank();
  const int my_world = comm.world_rank(me);

  const auto adj = detail::adjusted_displacements(comm, pe_msgs, root);
  XBGAS_CHECK(adj[static_cast<std::size_t>(n)] == nelems,
              "scatter: sum(pe_msgs) must equal nelems");

  T* s_buff =
      static_cast<T*>(detail::collective_staging_alloc(sizeof(T), nelems));

  if (vr == 0) {
    // Reorder src by *virtual* rank so each subtree's data is contiguous and
    // a single put per edge suffices even for non-zero roots (§4.5).
    for (int v = 0; v < n; ++v) {
      const int lr = logical_rank(v, root, n);
      const auto count = static_cast<std::size_t>(pe_msgs[lr]);
      if (count > 0) {
        xbr_put(s_buff + adj[static_cast<std::size_t>(v)],
                src + pe_disp[lr], count, 1, my_world);
      }
    }
  }
  comm.barrier();

  // Each edge puts the receiver's whole subtree slice.
  detail::knomial_walk(
      /*top_down=*/true, n, /*radix=*/2, vr, comm, SchedMode::kBlocking,
      [&](int to, int width) {
        const auto [lo, hi] = detail::subtree_span(adj, to, width, n);
        if (hi > lo) {
          xbr_put(s_buff + lo, s_buff + lo, hi - lo, 1,
                  comm.world_rank(logical_rank(to, root, n)));
        }
      });

  // Relocate this PE's assigned values from the staging buffer to dest.
  const auto mine = static_cast<std::size_t>(pe_msgs[me]);
  if (mine > 0) {
    xbr_put(dest, s_buff + adj[static_cast<std::size_t>(vr)], mine, 1,
            my_world);
  }
  detail::collective_staging_free(s_buff);
}

template <class T>
void gather(T* dest, const T* src, const int* pe_msgs, const int* pe_disp,
            std::size_t nelems, int root, Communicator& comm = world_comm()) {
  const int vr = detail::collective_prologue(comm, root, /*stride=*/1);
  const int n = comm.n_pes();
  const int me = comm.rank();
  const int my_world = comm.world_rank(me);

  const auto adj = detail::adjusted_displacements(comm, pe_msgs, root);
  XBGAS_CHECK(adj[static_cast<std::size_t>(n)] == nelems,
              "gather: sum(pe_msgs) must equal nelems");

  T* s_buff =
      static_cast<T*>(detail::collective_staging_alloc(sizeof(T), nelems));

  // Load this PE's candidate gather data at its adjusted displacement.
  const auto mine = static_cast<std::size_t>(pe_msgs[me]);
  if (mine > 0) {
    xbr_put(s_buff + adj[static_cast<std::size_t>(vr)], src, mine, 1,
            my_world);
  }
  comm.barrier();

  // Each edge pulls the subtree the child accumulated in earlier stages.
  detail::knomial_walk(
      /*top_down=*/false, n, /*radix=*/2, vr, comm, SchedMode::kBlocking,
      [&](int child, int width) {
        const auto [lo, hi] = detail::subtree_span(adj, child, width, n);
        if (hi > lo) {
          xbr_get(s_buff + lo, s_buff + lo, hi - lo, 1,
                  comm.world_rank(logical_rank(child, root, n)));
        }
      });

  if (vr == 0) {
    // Reorder from virtual-rank order back to logical-rank displacements.
    for (int v = 0; v < n; ++v) {
      const int lr = logical_rank(v, root, n);
      const auto count = static_cast<std::size_t>(pe_msgs[lr]);
      if (count > 0) {
        xbr_put(dest + pe_disp[lr], s_buff + adj[static_cast<std::size_t>(v)],
                count, 1, my_world);
      }
    }
  }
  detail::collective_staging_free(s_buff);
}

}  // namespace xbgas
