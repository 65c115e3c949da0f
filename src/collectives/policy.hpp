#pragma once

// Cost-model-driven collective algorithm selection — the layer the paper's
// §7 future work asks for once "algorithms optimized for larger message
// sizes" exist alongside the binomial tree. The repo now carries three
// algorithm families (k-nomial tree in collectives.hpp, segmented ring in
// ring.hpp, locality-aware hierarchical in hierarchy.hpp); CollectivePolicy
// is the analytic latency–bandwidth model that picks between them per
// collective and per (n_pes, payload bytes) point. The detail::run_*
// templates below hold the one family switch per collective kind; the
// blocking dispatch_* entry points, the nbi entry points (nbi.hpp) and the
// tuner all run through them.
//
// The model is the classic alpha–beta decomposition parameterized from the
// machine's own NetCostParams (docs/COLLECTIVES.md derives the formulas):
//
//   message(b) = alpha + b * beta
//     alpha = OLB lookup + injection + mean_hops * per_hop + remote memory
//             + fabric per-message cost + header serialization
//     beta  = 1 / link_bytes_per_cycle
//   barrier(n) = NetCostParams::barrier_cycles(n)   (modeled exchange)
//   gamma      = cycles per reduced element (detail::kReduceOpCycles)
//
//   tree      ceil(log_k n) stages, the WHOLE payload per stage
//   ring      pipelined: (n-2)+S steps of B/S bytes (bcast/reduce) or
//             2(n-1) steps of B/n bytes (allreduce), n-1 steps (allgather)
//   hier      multi-level k-nomial stack over the cluster topology's
//             grouping levels; only modeled when there is locality to
//             exploit (hier_eligible)
//
// On top of the analytic model sits a measurement-driven auto-tuner
// (XHC-style, src/collectives/tuner.hpp): a TuneTable maps
// (kind, n_pes, bytes) to a measured-best (family, radix, chunk) triple,
// persists to a text file, and loads via --coll-tune-table. decide()
// consults the table first and falls back to the alpha-beta argmin on a
// miss; coll.tuner.* counters account for both paths.
//
// Selection: MachineConfig::coll_algo ("auto" | "tree" | "ring" | "hier")
// forces a family or leaves the decision in charge; benches expose it as
// --coll-algo (plus --coll-radix / --coll-tune-table). Every dispatch
// bumps the process-wide coll.algo.<name> counters and records a
// kCollDispatch trace event.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "collectives/hierarchy.hpp"
#include "collectives/ring.hpp"

namespace xbgas {

/// Algorithm family. kAuto is only a *request* (forced() value); choose()
/// and the dispatchers always resolve to a concrete family.
enum class CollAlgo : std::uint8_t { kAuto = 0, kTree, kRing, kHier };
inline constexpr int kCollAlgoCount = 4;

/// The collective shapes the policy distinguishes.
enum class CollKind : std::uint8_t {
  kBroadcast = 0,
  kReduce,
  kAllreduce,
  kAllgather,
};
inline constexpr int kCollKindCount = 4;

const char* coll_algo_name(CollAlgo algo);
const char* coll_kind_name(CollKind kind);

/// Parse "auto" | "tree" | "ring" | "hier"; throws xbgas::Error otherwise.
CollAlgo parse_coll_algo(const std::string& name);

/// Parse a coll_kind_name back; throws xbgas::Error otherwise.
CollKind parse_coll_kind(const std::string& name);

/// A fully-resolved dispatch decision: the family plus the schedule knobs
/// the tuner sweeps (k-nomial radix, pipelined chunk size in elements;
/// chunk 0 keeps the built-in heuristics).
struct CollDecision {
  CollAlgo algo = CollAlgo::kTree;
  int radix = 2;
  std::size_t chunk = 0;
  bool tuned = false;  ///< true when a tune-table entry decided it
};

/// One persisted tuner measurement: the winning (algo, radix, chunk) for a
/// (kind, n_pes, bytes) point.
struct TuneEntry {
  CollKind kind = CollKind::kBroadcast;
  int n_pes = 0;
  std::size_t bytes = 0;
  CollAlgo algo = CollAlgo::kTree;
  int radix = 2;
  std::size_t chunk = 0;
};

/// The tuner's lookup table. Entries are exact on (kind, n_pes); payload
/// size matches the nearest measured point in log-scale (OSU sweeps are
/// geometric, so nearest-log is the natural interpolation).
class TuneTable {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Insert or replace the entry at (kind, n_pes, bytes).
  void insert(const TuneEntry& entry);

  /// Every entry in save() order (sorted by key, then bytes). The OSU
  /// bench uses this to merge per-PE-count sweeps into one table.
  std::vector<TuneEntry> entries() const;

  /// Best match for the point, or nullptr when no (kind, n_pes) entry
  /// exists at any payload size.
  const TuneEntry* lookup(CollKind kind, int n_pes, std::size_t bytes) const;

  /// Persist as the versioned text format docs/COLLECTIVES.md specifies
  /// (sorted, so saves are deterministic). Throws xbgas::Error on I/O error.
  void save(const std::string& path) const;

  /// Load a table persisted by save(). Throws xbgas::Error on I/O or
  /// format errors.
  static TuneTable load(const std::string& path);

 private:
  // (kind, n_pes) -> entries sorted by bytes ascending.
  std::map<std::pair<int, int>, std::vector<TuneEntry>> by_key_;
  std::size_t count_ = 0;
};

class CollectivePolicy {
 public:
  /// Default NetCostParams on a flat fabric, auto selection.
  CollectivePolicy();

  /// Parameterize from a machine configuration: wire costs from config.net,
  /// hop distances (and cluster grouping levels, when present) from
  /// config.topology_name, forced algorithm from config.coll_algo unless
  /// `forced` overrides it, default radix from config.coll_radix, and the
  /// tune table from config.coll_tune_table (throws if the file is set but
  /// unreadable).
  explicit CollectivePolicy(const MachineConfig& config,
                            CollAlgo forced = CollAlgo::kAuto);

  CollAlgo forced() const { return forced_; }
  void set_forced(CollAlgo algo) { forced_ = algo; }

  /// Innermost cluster group size from the topology (0 on non-cluster
  /// fabrics).
  int cluster_group() const {
    return cluster_groups_.empty() ? 0 : cluster_groups_.front();
  }

  /// Apply the scripted link plan's currently-down pairs to the model:
  /// mean hops re-derive from the degraded reachability view
  /// (DegradedTopologyView), hierarchy levels with an intra-group dead link
  /// drop out of hier_groups()/hier_cost(), and families whose fixed
  /// schedules cross a dead link are excluded from choose() (unless every
  /// family is blocked, in which case costs stand and the escalation
  /// machinery handles the crossing). active_collective_policy() calls this
  /// on every LinkFaults version change.
  void apply_link_faults(std::vector<std::pair<int, int>> down_pairs,
                         const MachineConfig& config);

  /// The down pairs currently applied (normalized a < b, sorted).
  const std::vector<std::pair<int, int>>& down_pairs() const {
    return down_pairs_;
  }

  /// True when `algo`'s fixed schedule over ranks [0, n_pes) crosses a down
  /// pair: the ring's consecutive cycle, or the k-nomial tree's parent
  /// edges (root 0, default radix). Hier is never blocked here — its level
  /// stack is filtered per group instead.
  bool family_blocked(CollAlgo algo, int n_pes) const;

  /// The topology's grouping widths usable as a hierarchy over n_pes:
  /// cluster levels that divide n_pes and are smaller than it, ascending.
  /// Empty on non-cluster fabrics (or when nothing divides).
  std::vector<int> hier_groups(int n_pes) const;

  /// The level stack dispatch hands to the hierarchy engine.
  HierShape hier_shape(int n_pes, int radix, std::size_t chunk) const;

  /// Default k-nomial radix (config.coll_radix, or 2).
  int default_radix() const { return default_radix_; }

  const TuneTable& tune_table() const { return tune_table_; }
  void set_tune_table(TuneTable table);

  // -- Analytic cost model (cycles; exposed for tests and the bench) --

  double message_cost(std::size_t bytes) const;
  double barrier_cost(int n_pes) const;
  double tree_cost(CollKind kind, int n_pes, std::size_t nelems,
                   std::size_t elem_size) const;
  double ring_cost(CollKind kind, int n_pes, std::size_t nelems,
                   std::size_t elem_size) const;
  /// +infinity unless `hier_eligible(kind, n_pes)`.
  double hier_cost(CollKind kind, int n_pes, std::size_t nelems,
                   std::size_t elem_size) const;

  /// The hierarchical family covers every collective kind; it needs the
  /// world communicator, a cluster topology, and at least one grouping
  /// level that divides n_pes.
  bool hier_eligible(CollKind kind, int n_pes) const;

  /// Resolve the algorithm for one call site: the forced family when set
  /// (with ineligible choices degrading to tree), else the model argmin.
  /// `world` tells the policy whether the communicator spans the machine
  /// (hierarchical needs it). Never returns kAuto.
  CollAlgo choose(CollKind kind, int n_pes, std::size_t nelems,
                  std::size_t elem_size, bool world = true) const;

  /// Full decision for one call site: forced family first, then the tune
  /// table (counted as coll.tuner.hits / .misses), then the analytic
  /// argmin. Never returns kAuto.
  CollDecision decide(CollKind kind, int n_pes, std::size_t nelems,
                      std::size_t elem_size, bool world = true) const;

  /// Smallest element count at which the model prefers the ring over the
  /// tree for this collective (the crossover the bench plots), or SIZE_MAX
  /// when the ring never wins below the search cap (2^24 elements).
  std::size_t crossover_nelems(CollKind kind, int n_pes,
                               std::size_t elem_size) const;

 private:
  /// True when a down pair falls inside one width-`g` group of [0, n_pes).
  bool level_cut(int g, int n_pes) const;

  NetCostParams net_{};
  double mean_hops_ = 1.0;
  std::vector<int> cluster_groups_;  ///< ascending widths (empty: no cluster)
  std::vector<int> cluster_hops_;    ///< boundary costs, parallel to groups
  std::vector<std::pair<int, int>> down_pairs_;  ///< normalized, sorted
  int default_radix_ = 2;
  CollAlgo forced_ = CollAlgo::kAuto;
  TuneTable tune_table_;
};

/// Snapshot of the process-wide dispatch counters (every PE's dispatch
/// counts once). Reset between benchmark repetitions with
/// reset_coll_dispatch_counts(); benchlib's emit_observability folds these
/// into the counter registry as coll.algo.<name> / coll.<kind>.<algo>.
struct CollDispatchCounts {
  std::uint64_t total = 0;
  std::uint64_t auto_resolved = 0;  ///< dispatches decided by the model
  std::uint64_t by_algo[kCollAlgoCount] = {};
  std::uint64_t by_kind_algo[kCollKindCount][kCollAlgoCount] = {};
};

CollDispatchCounts coll_dispatch_counts();
void reset_coll_dispatch_counts();

/// Process-wide auto-tuner counters (observability: coll.tuner.*).
/// `entries` is the size of the most recently loaded table; hits/misses
/// count decide() consultations that found / missed a usable entry.
struct CollTunerCounters {
  std::uint64_t entries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

CollTunerCounters coll_tuner_counters();
void reset_coll_tuner_counters();

/// The policy in force for the calling PE (built from its machine's config
/// and cached per thread). Requires an initialized runtime.
const CollectivePolicy& active_collective_policy();

namespace detail {

/// Consult the active policy, bump the dispatch counters, and record the
/// kCollDispatch trace event (a = (kind << 8) | algo, b = payload bytes).
/// Returns the concrete decision to run.
CollDecision resolve_and_record(CollKind kind, int n_pes, std::size_t nelems,
                                std::size_t elem_size, bool world);

/// Map the tuner's chunk-elements knob to the ring family's segment count
/// (0 keeps the ring heuristic).
inline std::size_t ring_segments_hint(std::size_t nelems, std::size_t chunk) {
  return chunk == 0 ? 0 : std::clamp<std::size_t>(nelems / chunk, 1, 64);
}

// -- The family switches ----------------------------------------------------
//
// One switch per collective kind, shared by the blocking dispatch_* entry
// points (kBlocking), the nbi entry points in nbi.hpp (kDeferred) and the
// tuner's candidate runs (kBlocking, no dispatch accounting). Each runs
// decision `d`'s schedule and returns a live CollReq only when the
// schedule left its final fence to CollReq::wait.

/// The level stack the hier family runs `d` on, for an n-PE world.
inline HierShape hier_shape_for(const CollDecision& d, int n_pes) {
  return active_collective_policy().hier_shape(n_pes, d.radix, d.chunk);
}

template <class T>
CollReq run_broadcast(const CollDecision& d, SchedMode mode, T* dest,
                      const T* src, std::size_t nelems, int stride, int root,
                      Communicator& comm) {
  switch (d.algo) {
    case CollAlgo::kRing:
      return ring_broadcast(dest, src, nelems, stride, root, comm,
                            ring_segments_hint(nelems, d.chunk), mode);
    case CollAlgo::kHier:
      return hier_broadcast(dest, src, nelems, stride, root,
                            hier_shape_for(d, comm.n_pes()), mode);
    default:
      return knomial_broadcast(dest, src, nelems, stride, root, d.radix, comm,
                               mode, d.chunk);
  }
}

/// A reduce completes at return in every mode; the nbi modes pipeline it.
template <class Op, class T>
CollReq run_reduce(const CollDecision& d, SchedMode mode, T* dest,
                   const T* src, std::size_t nelems, int stride, int root,
                   Communicator& comm) {
  switch (d.algo) {
    case CollAlgo::kRing:
      // Already a fully pipelined schedule (double-buffered landing,
      // deferred combine) in every mode.
      ring_reduce<Op>(dest, src, nelems, stride, root, comm,
                      ring_segments_hint(nelems, d.chunk));
      break;
    case CollAlgo::kHier:
      hier_reduce<Op>(dest, src, nelems, stride, root,
                      hier_shape_for(d, comm.n_pes()), mode);
      break;
    default:
      knomial_reduce<Op>(dest, src, nelems, stride, root, d.radix, comm, mode,
                         d.chunk);
      break;
  }
  return CollReq{};
}

template <class Op, class T>
CollReq run_reduce_all(const CollDecision& d, SchedMode mode, T* dest,
                       const T* src, std::size_t nelems, int stride,
                       Communicator& comm) {
  switch (d.algo) {
    case CollAlgo::kRing:
      ring_allreduce<Op>(dest, src, nelems, stride, comm, mode);
      return CollReq{};
    case CollAlgo::kHier:
      return hier_reduce_all<Op>(dest, src, nelems, stride,
                                 hier_shape_for(d, comm.n_pes()), mode);
    default:
      knomial_reduce<Op>(dest, src, nelems, stride, /*root=*/0, d.radix, comm,
                         fenced(mode), d.chunk);
      return knomial_broadcast(dest, dest, nelems, stride, /*root=*/0,
                               d.radix, comm, mode, d.chunk);
  }
}

template <class T>
CollReq run_fcollect(const CollDecision& d, SchedMode mode, T* dest,
                     const T* src, std::size_t nelems_per_pe,
                     Communicator& comm) {
  const int n = comm.n_pes();
  const std::size_t total = nelems_per_pe * static_cast<std::size_t>(n);
  switch (d.algo) {
    case CollAlgo::kRing:
      return ring_allgather(dest, src, nelems_per_pe, comm, mode);
    case CollAlgo::kHier:
      return hier_fcollect(dest, src, nelems_per_pe, hier_shape_for(d, n),
                           mode);
    default:
      if (d.radix != 2) {
        // k-nomial block gather to rank 0.
        const int me = comm.rank();
        if (nelems_per_pe > 0 &&
            dest + static_cast<std::size_t>(me) * nelems_per_pe != src) {
          xbr_put(dest + static_cast<std::size_t>(me) * nelems_per_pe, src,
                  nelems_per_pe, 1, comm.world_rank(me));
        }
        knomial_gather_blocks(dest, nelems_per_pe, /*start=*/0, /*sub=*/1,
                              d.radix, comm);
      } else {
        // The paper's composition: gather (Algorithm 4) to rank 0. The
        // radix-2 block gather above would be cheaper in modeled cycles;
        // switching to it is an algorithm change with its own measurement.
        std::vector<int> msgs(static_cast<std::size_t>(n),
                              static_cast<int>(nelems_per_pe));
        std::vector<int> disp(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
          disp[static_cast<std::size_t>(r)] = static_cast<int>(
              static_cast<std::size_t>(r) * nelems_per_pe);
        }
        gather(dest, src, msgs.data(), disp.data(), total, /*root=*/0, comm);
      }
      return knomial_broadcast(dest, dest, total, /*stride=*/1, /*root=*/0,
                               d.radix, comm, mode, d.chunk);
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatching entry points (same contracts as the tree primitives)
// ---------------------------------------------------------------------------

template <class T>
void dispatch_broadcast(T* dest, const T* src, std::size_t nelems, int stride,
                        int root, Communicator& comm = world_comm()) {
  const CollDecision d =
      detail::resolve_and_record(CollKind::kBroadcast, comm.n_pes(), nelems,
                                 sizeof(T), &comm == &world_comm());
  detail::run_broadcast(d, SchedMode::kBlocking, dest, src, nelems, stride,
                        root, comm);
}

template <class Op, class T>
void dispatch_reduce(T* dest, const T* src, std::size_t nelems, int stride,
                     int root, Communicator& comm = world_comm()) {
  const CollDecision d =
      detail::resolve_and_record(CollKind::kReduce, comm.n_pes(), nelems,
                                 sizeof(T), &comm == &world_comm());
  detail::run_reduce<Op>(d, SchedMode::kBlocking, dest, src, nelems, stride,
                         root, comm);
}

template <class Op, class T>
void dispatch_reduce_all(T* dest, const T* src, std::size_t nelems,
                         int stride, Communicator& comm = world_comm()) {
  const CollDecision d =
      detail::resolve_and_record(CollKind::kAllreduce, comm.n_pes(), nelems,
                                 sizeof(T), &comm == &world_comm());
  detail::run_reduce_all<Op>(d, SchedMode::kBlocking, dest, src, nelems,
                             stride, comm);
}

template <class T>
void dispatch_fcollect(T* dest, const T* src, std::size_t nelems_per_pe,
                       Communicator& comm = world_comm()) {
  const int n = comm.n_pes();
  const CollDecision d = detail::resolve_and_record(
      CollKind::kAllgather, n, nelems_per_pe * static_cast<std::size_t>(n),
      sizeof(T), &comm == &world_comm());
  detail::run_fcollect(d, SchedMode::kBlocking, dest, src, nelems_per_pe,
                       comm);
}

}  // namespace xbgas
