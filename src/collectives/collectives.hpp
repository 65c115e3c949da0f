#pragma once

// The tree collectives (paper §4, Algorithms 1-4) and the k-nomial executor
// that runs every tree schedule in the library.
//
// All four share the same skeleton: fetch n_pes and the calling PE's rank,
// remap to virtual ranks so the root is virtual rank 0 (vrank.hpp), then
// run the tree's stages with a barrier after every stage. Broadcast and
// scatter walk the tree top-down with put; reduce and gather walk it
// bottom-up with get. Broadcast and reduce (Algorithms 1-2) are the radix-2
// instance of the k-nomial executor below, whose radix-2 edges are exactly
// the paper's ceil(log2 n) masked stages (tests/collectives/schedule_test
// derives them from the mask recurrence). Scatter and gather (Algorithms
// 3-4) keep the paper's mask loop: each stage moves one subtree's slice of
// a virtually reordered buffer. The `vir_rank < vir_part` guard suppresses
// the phantom partners that appear when n_pes is not a power of two.
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
//              subtree's data is contiguous and one put per stage suffices
//              even with a non-zero root (§4.5).
//   gather:    mirror of scatter (§4.6).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "collectives/comm.hpp"
#include "collectives/ops.hpp"
#include "collectives/schedule.hpp"
#include "collectives/vrank.hpp"
#include "common/bits.hpp"
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
      rma_transfer(dest + at, src + at, sizeof(T), hi - lo, stride, world_pe,
                   remote_is_dest, /*nonblocking=*/true,
                   /*atomic_elems=*/false, NbTrack::kInternal);
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
// The k-nomial executor (any radix, any Communicator)
// ---------------------------------------------------------------------------
//
// Each PE computes only its own edges (knomial_broadcast_sends /
// knomial_reduce_pulls) and walks the stages in order. kStageBegin and
// kStageEnd carry a = stage index, b = radix.

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
  if (n == 1) return CollReq{};

  PeContext& ctx = xbrtime_ctx();
  const auto sends = knomial_broadcast_sends(n, radix, vr);
  const int stages = knomial_stages(n, radix);
  const bool defer = mode == SchedMode::kDeferred;
  std::size_t e = 0;
  for (int s = 0; s < stages; ++s) {
    ctx.trace().record(EventKind::kStageBegin, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
    for (; e < sends.size() && sends[e].stage == s; ++e) {
      if (nelems == 0) continue;
      const int lpart = logical_rank(sends[e].to_vrank, root, n);
      // The root sends straight from src; later senders forward from dest.
      const T* from = (vr == 0) ? src : dest;
      hop_put(mode, dest, from, nelems, stride, comm.world_rank(lpart),
              chunk);
    }
    // Per-stage synchronization (paper §4.3); a deferred schedule leaves
    // the final fence to CollReq::wait.
    if (!(defer && s == stages - 1)) comm.barrier();
    ctx.trace().record(EventKind::kStageEnd, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
  }
  return defer ? CollReq{&comm} : CollReq{};
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
  if (n == 1) return;

  PeContext& ctx = xbrtime_ctx();
  std::vector<T> land(nelems);
  const auto pulls = knomial_reduce_pulls(n, radix, vr);
  const int stages = knomial_stages(n, radix);
  std::size_t e = 0;
  for (int s = 0; s < stages; ++s) {
    ctx.trace().record(EventKind::kStageBegin, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
    for (; e < pulls.size() && pulls[e].stage == s; ++e) {
      if (nelems == 0) continue;
      const int lpart = logical_rank(pulls[e].from_vrank, root, n);
      hop_get(mode, land.data(), part, nelems, 1, comm.world_rank(lpart),
              chunk);
      for (std::size_t j = 0; j < nelems; ++j) {
        part[j] = Op::apply(part[j], land[j]);
      }
      ctx.clock().advance(kReduceOpCycles * nelems);
    }
    comm.barrier();  // parent's combined part visible to the next stage
    ctx.trace().record(EventKind::kStageEnd, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
  }
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
  const int vr = comm.rank();  // rooted at team rank 0: no vrank remap
  comm.barrier();  // lower-level accumulations settled before pulls
  if (m == 1) return;

  PeContext& ctx = xbrtime_ctx();
  const auto pulls = knomial_reduce_pulls(m, radix, vr);
  const int stages = knomial_stages(m, radix);
  std::size_t e = 0;
  long long width = 1;  // accumulated subtree width (team ranks) at stage s
  for (int s = 0; s < stages; ++s) {
    ctx.trace().record(EventKind::kStageBegin, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
    for (; e < pulls.size() && pulls[e].stage == s; ++e) {
      if (per == 0) continue;
      const int child = pulls[e].from_vrank;
      const long long got = std::min<long long>(width, m - child);
      const std::size_t off =
          (static_cast<std::size_t>(start) +
           static_cast<std::size_t>(child) * static_cast<std::size_t>(sub)) *
          per;
      xbr_get(dest + off, dest + off,
              static_cast<std::size_t>(got) * static_cast<std::size_t>(sub) *
                  per,
              1, comm.world_rank(child));
    }
    comm.barrier();
    width *= radix;
    ctx.trace().record(EventKind::kStageEnd, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
  }
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

template <class T>
void reduce_sum(T* dest, const T* src, std::size_t nelems, int stride,
                int root, Communicator& comm = world_comm()) {
  reduce<OpSum>(dest, src, nelems, stride, root, comm);
}
template <class T>
void reduce_prod(T* dest, const T* src, std::size_t nelems, int stride,
                 int root, Communicator& comm = world_comm()) {
  reduce<OpProd>(dest, src, nelems, stride, root, comm);
}
template <class T>
void reduce_min(T* dest, const T* src, std::size_t nelems, int stride,
                int root, Communicator& comm = world_comm()) {
  reduce<OpMin>(dest, src, nelems, stride, root, comm);
}
template <class T>
void reduce_max(T* dest, const T* src, std::size_t nelems, int stride,
                int root, Communicator& comm = world_comm()) {
  reduce<OpMax>(dest, src, nelems, stride, root, comm);
}

// ---------------------------------------------------------------------------
// Scatter (Algorithm 3)
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
    // a single put per stage suffices even for non-zero roots (§4.5).
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

  PeContext& ctx = xbrtime_ctx();
  const auto levels = ceil_log2(static_cast<std::uint64_t>(n));
  unsigned mask = (1u << levels) - 1u;
  const auto uvr = static_cast<unsigned>(vr);
  std::uint64_t stage = 0;
  for (int i = static_cast<int>(levels) - 1; i >= 0; --i) {
    mask ^= (1u << i);
    ctx.trace().record(EventKind::kStageBegin, -1, stage, mask);
    if ((uvr & mask) == 0 && (uvr & (1u << i)) == 0) {
      const int vpart = static_cast<int>(uvr ^ (1u << i)) % n;
      const int lpart = logical_rank(vpart, root, n);
      if (vr < vpart) {
        // Partner's subtree at this stage: virtual ranks
        // [vpart, min(vpart + 2^i, n)).
        const auto hi = std::min<std::size_t>(
            static_cast<std::size_t>(vpart) + (std::size_t{1} << i),
            static_cast<std::size_t>(n));
        const std::size_t msg_size =
            adj[hi] - adj[static_cast<std::size_t>(vpart)];
        if (msg_size > 0) {
          xbr_put(s_buff + adj[static_cast<std::size_t>(vpart)],
                  s_buff + adj[static_cast<std::size_t>(vpart)],
                  msg_size, 1, comm.world_rank(lpart));
        }
      }
    }
    comm.barrier();
    ctx.trace().record(EventKind::kStageEnd, -1, stage, mask);
    ++stage;
  }

  // Relocate this PE's assigned values from the staging buffer to dest.
  const auto mine = static_cast<std::size_t>(pe_msgs[me]);
  if (mine > 0) {
    xbr_put(dest, s_buff + adj[static_cast<std::size_t>(vr)], mine, 1,
            my_world);
  }
  detail::collective_staging_free(s_buff);
}

// ---------------------------------------------------------------------------
// Gather (Algorithm 4)
// ---------------------------------------------------------------------------

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

  PeContext& ctx = xbrtime_ctx();
  const auto levels = ceil_log2(static_cast<std::uint64_t>(n));
  unsigned mask = (1u << levels) - 1u;
  const auto uvr = static_cast<unsigned>(vr);
  for (unsigned i = 0; i < levels; ++i) {
    mask ^= (1u << i);
    ctx.trace().record(EventKind::kStageBegin, -1, i, mask);
    if ((uvr | mask) == mask && (uvr & (1u << i)) == 0) {
      const int vpart = static_cast<int>(uvr ^ (1u << i)) % n;
      const int lpart = logical_rank(vpart, root, n);
      if (vr < vpart) {
        // Partner has accumulated its full subtree [vpart, vpart + 2^i)
        // during earlier stages; pull it in one get.
        const auto hi = std::min<std::size_t>(
            static_cast<std::size_t>(vpart) + (std::size_t{1} << i),
            static_cast<std::size_t>(n));
        const std::size_t msg_size =
            adj[hi] - adj[static_cast<std::size_t>(vpart)];
        if (msg_size > 0) {
          xbr_get(s_buff + adj[static_cast<std::size_t>(vpart)],
                  s_buff + adj[static_cast<std::size_t>(vpart)],
                  msg_size, 1, comm.world_rank(lpart));
        }
      }
    }
    comm.barrier();
    ctx.trace().record(EventKind::kStageEnd, -1, i, mask);
  }

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
