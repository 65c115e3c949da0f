#include "collectives/policy.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>

#include "collectives/schedule.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "net/topology.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {

const char* coll_algo_name(CollAlgo algo) {
  switch (algo) {
    case CollAlgo::kAuto: return "auto";
    case CollAlgo::kTree: return "tree";
    case CollAlgo::kRing: return "ring";
    case CollAlgo::kHier: return "hier";
  }
  return "unknown";
}

const char* coll_kind_name(CollKind kind) {
  switch (kind) {
    case CollKind::kBroadcast: return "broadcast";
    case CollKind::kReduce: return "reduce";
    case CollKind::kAllreduce: return "allreduce";
    case CollKind::kAllgather: return "allgather";
  }
  return "unknown";
}

CollAlgo parse_coll_algo(const std::string& name) {
  if (name == "auto") return CollAlgo::kAuto;
  if (name == "tree") return CollAlgo::kTree;
  if (name == "ring") return CollAlgo::kRing;
  if (name == "hier") return CollAlgo::kHier;
  throw Error("unknown collective algorithm: " + name +
              " (auto|tree|ring|hier)");
}

CollKind parse_coll_kind(const std::string& name) {
  if (name == "broadcast") return CollKind::kBroadcast;
  if (name == "reduce") return CollKind::kReduce;
  if (name == "allreduce") return CollKind::kAllreduce;
  if (name == "allgather") return CollKind::kAllgather;
  throw Error("unknown collective kind: " + name +
              " (broadcast|reduce|allreduce|allgather)");
}

// ---------------------------------------------------------------------------
// Tuner counters (process-wide; see emit_observability)
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_tuner_entries{0};
std::atomic<std::uint64_t> g_tuner_hits{0};
std::atomic<std::uint64_t> g_tuner_misses{0};

}  // namespace

CollTunerCounters coll_tuner_counters() {
  CollTunerCounters out;
  out.entries = g_tuner_entries.load(std::memory_order_relaxed);
  out.hits = g_tuner_hits.load(std::memory_order_relaxed);
  out.misses = g_tuner_misses.load(std::memory_order_relaxed);
  return out;
}

void reset_coll_tuner_counters() {
  g_tuner_entries.store(0, std::memory_order_relaxed);
  g_tuner_hits.store(0, std::memory_order_relaxed);
  g_tuner_misses.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// TuneTable
// ---------------------------------------------------------------------------

namespace {
constexpr const char* kTuneTableHeader = "# xbgas collective tune table v1";
}  // namespace

void TuneTable::insert(const TuneEntry& entry) {
  auto& bucket = by_key_[{static_cast<int>(entry.kind), entry.n_pes}];
  const auto at = std::lower_bound(
      bucket.begin(), bucket.end(), entry.bytes,
      [](const TuneEntry& e, std::size_t b) { return e.bytes < b; });
  if (at != bucket.end() && at->bytes == entry.bytes) {
    *at = entry;
    return;
  }
  bucket.insert(at, entry);
  ++count_;
}

std::vector<TuneEntry> TuneTable::entries() const {
  std::vector<TuneEntry> out;
  out.reserve(count_);
  for (const auto& [key, bucket] : by_key_) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  return out;
}

const TuneEntry* TuneTable::lookup(CollKind kind, int n_pes,
                                   std::size_t bytes) const {
  const auto it = by_key_.find({static_cast<int>(kind), n_pes});
  if (it == by_key_.end() || it->second.empty()) return nullptr;
  const auto& bucket = it->second;
  const auto ge = std::lower_bound(
      bucket.begin(), bucket.end(), bytes,
      [](const TuneEntry& e, std::size_t b) { return e.bytes < b; });
  if (ge == bucket.begin()) return &*ge;
  if (ge == bucket.end()) return &bucket.back();
  // Nearest measured point in log scale (the sweep is geometric).
  const auto lt = ge - 1;
  const double q = static_cast<double>(std::max<std::size_t>(bytes, 1));
  const double lo = static_cast<double>(std::max<std::size_t>(lt->bytes, 1));
  const double hi = static_cast<double>(std::max<std::size_t>(ge->bytes, 1));
  return q / lo <= hi / q ? &*lt : &*ge;
}

void TuneTable::save(const std::string& path) const {
  std::ofstream out(path);
  XBGAS_CHECK(out.good(), "tune table: cannot open for write: " + path);
  out << kTuneTableHeader << "\n";
  for (const auto& [key, bucket] : by_key_) {
    for (const auto& e : bucket) {
      out << coll_kind_name(e.kind) << ' ' << e.n_pes << ' ' << e.bytes << ' '
          << coll_algo_name(e.algo) << ' ' << e.radix << ' ' << e.chunk
          << "\n";
    }
  }
  out.flush();
  XBGAS_CHECK(out.good(), "tune table: write failed: " + path);
}

TuneTable TuneTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw Error("tune table: cannot open: " + path);
  std::string line;
  XBGAS_CHECK(std::getline(in, line) && line == kTuneTableHeader,
              "tune table: bad header in " + path);
  TuneTable table;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string kind_name, algo_name;
    TuneEntry e;
    if (!(row >> kind_name >> e.n_pes >> e.bytes >> algo_name >> e.radix >>
          e.chunk)) {
      throw Error("tune table: bad row in " + path + ": " + line);
    }
    e.kind = parse_coll_kind(kind_name);
    e.algo = parse_coll_algo(algo_name);
    XBGAS_CHECK(e.algo != CollAlgo::kAuto,
                "tune table: entries must name a concrete algorithm");
    XBGAS_CHECK(e.n_pes >= 1 && e.radix >= 2,
                "tune table: bad n_pes/radix in " + path);
    table.insert(e);
  }
  return table;
}

// ---------------------------------------------------------------------------
// CollectivePolicy
// ---------------------------------------------------------------------------

CollectivePolicy::CollectivePolicy() = default;

CollectivePolicy::CollectivePolicy(const MachineConfig& config,
                                   CollAlgo forced)
    : net_(config.net),
      default_radix_(config.coll_radix >= 2 ? config.coll_radix : 2),
      forced_(forced == CollAlgo::kAuto ? parse_coll_algo(config.coll_algo)
                                        : forced) {
  const auto topology = make_topology(config.topology_name, config.n_pes);
  mean_hops_ = config.n_pes > 1 ? topology->mean_hops() : 1.0;
  if (const auto* cluster =
          dynamic_cast<const ClusterTopology*>(topology.get())) {
    for (const auto& lv : cluster->levels()) {
      cluster_groups_.push_back(lv.group);
      cluster_hops_.push_back(lv.hops);
    }
  }
  if (!config.coll_tune_table.empty()) {
    set_tune_table(TuneTable::load(config.coll_tune_table));
  }
}

void CollectivePolicy::set_tune_table(TuneTable table) {
  tune_table_ = std::move(table);
  g_tuner_entries.store(tune_table_.size(), std::memory_order_relaxed);
}

void CollectivePolicy::apply_link_faults(
    std::vector<std::pair<int, int>> down_pairs, const MachineConfig& config) {
  for (auto& p : down_pairs) {
    if (p.first > p.second) std::swap(p.first, p.second);
  }
  std::sort(down_pairs.begin(), down_pairs.end());
  down_pairs.erase(std::unique(down_pairs.begin(), down_pairs.end()),
                   down_pairs.end());
  down_pairs_ = std::move(down_pairs);
  if (down_pairs_.empty() || config.n_pes <= 1) return;
  const auto topology = make_topology(config.topology_name, config.n_pes);
  const DegradedTopologyView view(*topology, down_pairs_);
  mean_hops_ = view.degraded_mean_hops();
}

bool CollectivePolicy::level_cut(int g, int n_pes) const {
  for (const auto& p : down_pairs_) {
    if (p.second < n_pes && p.first / g == p.second / g) return true;
  }
  return false;
}

bool CollectivePolicy::family_blocked(CollAlgo algo, int n_pes) const {
  if (down_pairs_.empty() || n_pes <= 1) return false;
  const auto down = [&](int a, int b) {
    if (a > b) std::swap(a, b);
    return std::binary_search(down_pairs_.begin(), down_pairs_.end(),
                              std::make_pair(a, b));
  };
  switch (algo) {
    case CollAlgo::kRing:
      for (int r = 0; r < n_pes; ++r) {
        if (down(r, (r + 1) % n_pes)) return true;
      }
      return false;
    case CollAlgo::kTree:
      // The k-nomial tree's edges, rooted at 0.
      for (const TreeEdge& e : knomial_reduce_schedule(n_pes, default_radix_)) {
        if (down(e.to_vrank, e.from_vrank)) return true;
      }
      return false;
    default:
      return false;
  }
}

std::vector<int> CollectivePolicy::hier_groups(int n_pes) const {
  std::vector<int> groups;
  for (const int g : cluster_groups_) {
    if (g >= 2 && g < n_pes && n_pes % g == 0 && !level_cut(g, n_pes)) {
      groups.push_back(g);
    }
  }
  return groups;
}

HierShape CollectivePolicy::hier_shape(int n_pes, int radix,
                                       std::size_t chunk) const {
  return HierShape{hier_groups(n_pes), radix >= 2 ? radix : default_radix_,
                   chunk};
}

namespace {

/// Per-message startup cost with an explicit hop distance.
double alpha_cycles(const NetCostParams& net, double hops) {
  return static_cast<double>(net.olb_lookup_cycles) +
         static_cast<double>(net.injection_cycles) +
         hops * static_cast<double>(net.per_hop_cycles) +
         static_cast<double>(net.remote_mem_cycles) +
         static_cast<double>(net.fabric_message_cycles) +
         static_cast<double>(net.message_header_bytes) /
             net.link_bytes_per_cycle;
}

double message_with_hops(const NetCostParams& net, double hops,
                         std::size_t bytes) {
  return alpha_cycles(net, hops) +
         static_cast<double>(bytes) / net.link_bytes_per_cycle;
}

constexpr double kGamma = static_cast<double>(detail::kReduceOpCycles);

}  // namespace

double CollectivePolicy::message_cost(std::size_t bytes) const {
  return message_with_hops(net_, mean_hops_, bytes);
}

double CollectivePolicy::barrier_cost(int n_pes) const {
  return static_cast<double>(net_.barrier_cycles(std::max(n_pes, 1)));
}

double CollectivePolicy::tree_cost(CollKind kind, int n_pes,
                                   std::size_t nelems,
                                   std::size_t elem_size) const {
  if (n_pes <= 1) return 0.0;
  const std::size_t bytes = nelems * elem_size;
  const auto levels = static_cast<double>(
      ceil_log2(static_cast<std::uint64_t>(n_pes)));
  const double bar = barrier_cost(n_pes);
  switch (kind) {
    case CollKind::kBroadcast:
      return levels * (message_cost(bytes) + bar);
    case CollKind::kReduce:
      return levels *
             (message_cost(bytes) + bar + kGamma * static_cast<double>(nelems));
    case CollKind::kAllreduce:
      return tree_cost(CollKind::kReduce, n_pes, nelems, elem_size) +
             tree_cost(CollKind::kBroadcast, n_pes, nelems, elem_size);
    case CollKind::kAllgather: {
      // Gather with doubling subtree payloads (nelems is the TOTAL element
      // count for allgather kinds), then a full-payload broadcast. Ceiling
      // division: a sub-n_pes payload still moves at least one element's
      // bytes per stage instead of collapsing to the bare header.
      double gather = 0.0;
      const auto n = static_cast<std::size_t>(n_pes);
      const std::size_t per = (bytes + n - 1) / n;
      for (std::size_t sub = 1; sub < n; sub *= 2) {
        const std::size_t stage_bytes = sub * (per + elem_size);
        gather += message_cost(stage_bytes) + bar;
      }
      return gather + tree_cost(CollKind::kBroadcast, n_pes, nelems, elem_size);
    }
  }
  return 0.0;
}

double CollectivePolicy::ring_cost(CollKind kind, int n_pes,
                                   std::size_t nelems,
                                   std::size_t elem_size) const {
  if (n_pes <= 1) return 0.0;
  const std::size_t bytes = nelems * elem_size;
  const auto n = static_cast<double>(n_pes);
  const double bar = barrier_cost(n_pes);
  switch (kind) {
    case CollKind::kBroadcast:
    case CollKind::kReduce: {
      const auto segs = static_cast<double>(ring_default_segments(nelems));
      const double steps = (n - 2.0) + segs;
      const double per_step =
          message_cost(static_cast<std::size_t>(
              static_cast<double>(bytes) / segs)) + bar;
      const double combine = kind == CollKind::kReduce
                                 ? kGamma * static_cast<double>(nelems)
                                 : 0.0;
      return steps * per_step + combine;
    }
    case CollKind::kAllreduce: {
      const auto chunk = static_cast<std::size_t>(
          static_cast<double>(bytes) / n);
      return 2.0 * (n - 1.0) * (message_cost(chunk) + bar) +
             kGamma * static_cast<double>(nelems);
    }
    case CollKind::kAllgather: {
      const auto chunk = static_cast<std::size_t>(
          static_cast<double>(bytes) / n);
      return (n - 1.0) * (message_cost(chunk) + bar);
    }
  }
  return 0.0;
}

bool CollectivePolicy::hier_eligible(CollKind kind, int n_pes) const {
  (void)kind;  // every collective kind has a hierarchical schedule now
  if (n_pes <= 1) return false;
  return !hier_groups(n_pes).empty();
}

double CollectivePolicy::hier_cost(CollKind kind, int n_pes,
                                   std::size_t nelems,
                                   std::size_t elem_size) const {
  if (!hier_eligible(kind, n_pes)) {
    return std::numeric_limits<double>::infinity();
  }
  const std::size_t bytes = nelems * elem_size;
  const int radix = default_radix_;

  // Rebuild the level stack the engine will run (hier_groups filtered from
  // the topology), pairing each level's team size with its link distance.
  std::vector<int> groups;
  std::vector<int> link_hops;
  for (std::size_t i = 0; i < cluster_groups_.size(); ++i) {
    const int g = cluster_groups_[i];
    if (g >= 2 && g < n_pes && n_pes % g == 0 && !level_cut(g, n_pes)) {
      groups.push_back(g);
      link_hops.push_back(cluster_hops_[i]);
    }
  }

  struct Level {
    int team;     ///< team size at this level
    double hops;  ///< link distance its transfers cross
  };
  std::vector<Level> stack;
  stack.push_back(Level{n_pes / groups.back(),
                        static_cast<double>(link_hops.back())});
  for (std::size_t i = groups.size(); i-- > 0;) {
    const int sub = i == 0 ? 1 : groups[i - 1];
    stack.push_back(Level{groups[i] / sub,
                          i == 0 ? 1.0
                                 : static_cast<double>(link_hops[i - 1])});
  }

  const auto stage_sum = [&](double per_stage_extra,
                             std::size_t stage_bytes) {
    double total = 0.0;
    for (const auto& lv : stack) {
      const auto stages =
          static_cast<double>(knomial_stages(lv.team, radix));
      total += stages * (message_with_hops(net_, lv.hops, stage_bytes) +
                         barrier_cost(lv.team) + per_stage_extra);
    }
    return total;
  };

  // Root -> top-leader handoff: one local message plus the pair barrier.
  const double handoff = message_with_hops(net_, 1.0, bytes) + barrier_cost(2);
  const double bcast = handoff + stage_sum(0.0, bytes);
  switch (kind) {
    case CollKind::kBroadcast:
      return bcast;
    case CollKind::kReduce:
      return handoff + stage_sum(kGamma * static_cast<double>(nelems), bytes);
    case CollKind::kAllreduce:
      return hier_cost(CollKind::kReduce, n_pes, nelems, elem_size) + bcast;
    case CollKind::kAllgather: {
      // Block gather up the stack (payload grows toward the full
      // concatenation; bound each level by its accumulated width), then a
      // full-payload broadcast back down.
      const auto n = static_cast<std::size_t>(n_pes);
      const std::size_t per = (bytes + n - 1) / n;
      double gather_up = 0.0;
      std::size_t width = 1;
      for (std::size_t l = stack.size(); l-- > 0;) {
        const auto& lv = stack[l];
        width *= static_cast<std::size_t>(lv.team);
        const auto stages = static_cast<double>(knomial_stages(lv.team, radix));
        gather_up += stages * (message_with_hops(net_, lv.hops, width * per) +
                               barrier_cost(lv.team));
      }
      return gather_up + bcast;
    }
  }
  return bcast;
}

CollAlgo CollectivePolicy::choose(CollKind kind, int n_pes,
                                  std::size_t nelems, std::size_t elem_size,
                                  bool world) const {
  const bool ring_ok = n_pes >= 2;
  const bool hier_ok = world && hier_eligible(kind, n_pes);
  if (forced_ != CollAlgo::kAuto) {
    if (forced_ == CollAlgo::kRing && !ring_ok) return CollAlgo::kTree;
    if (forced_ == CollAlgo::kHier && !hier_ok) return CollAlgo::kTree;
    return forced_;
  }
  double tree = tree_cost(kind, n_pes, nelems, elem_size);
  double ring = ring_ok ? ring_cost(kind, n_pes, nelems, elem_size)
                        : std::numeric_limits<double>::infinity();
  const double hier = hier_ok ? hier_cost(kind, n_pes, nelems, elem_size)
                              : std::numeric_limits<double>::infinity();
  if (!down_pairs_.empty()) {
    // Route around dead links: a family whose fixed schedule crosses one is
    // out of the running — unless every family is blocked, in which case
    // the costs stand and the unreachable-peer escalation takes over.
    const double inf = std::numeric_limits<double>::infinity();
    const double b_tree = family_blocked(CollAlgo::kTree, n_pes) ? inf : tree;
    const double b_ring = family_blocked(CollAlgo::kRing, n_pes) ? inf : ring;
    if (std::isfinite(b_tree) || std::isfinite(b_ring) ||
        std::isfinite(hier)) {
      tree = b_tree;
      ring = b_ring;
    }
  }
  CollAlgo best = CollAlgo::kTree;
  double best_cost = tree;
  if (ring < best_cost) {
    best = CollAlgo::kRing;
    best_cost = ring;
  }
  if (hier < best_cost) {
    best = CollAlgo::kHier;
  }
  return best;
}

CollDecision CollectivePolicy::decide(CollKind kind, int n_pes,
                                      std::size_t nelems,
                                      std::size_t elem_size,
                                      bool world) const {
  CollDecision d;
  d.radix = default_radix_;
  if (forced_ != CollAlgo::kAuto) {
    d.algo = choose(kind, n_pes, nelems, elem_size, world);
    return d;
  }
  if (!tune_table_.empty() && world) {
    const TuneEntry* e = tune_table_.lookup(kind, n_pes, nelems * elem_size);
    bool usable = e != nullptr;
    if (usable && e->algo == CollAlgo::kHier &&
        !hier_eligible(kind, n_pes)) {
      usable = false;
    }
    if (usable && e->algo == CollAlgo::kRing && n_pes < 2) usable = false;
    if (usable) {
      g_tuner_hits.fetch_add(1, std::memory_order_relaxed);
      d.algo = e->algo;
      if (e->radix >= 2) d.radix = e->radix;
      d.chunk = e->chunk;
      d.tuned = true;
      return d;
    }
    g_tuner_misses.fetch_add(1, std::memory_order_relaxed);
  }
  d.algo = choose(kind, n_pes, nelems, elem_size, world);
  return d;
}

std::size_t CollectivePolicy::crossover_nelems(CollKind kind, int n_pes,
                                               std::size_t elem_size) const {
  if (n_pes < 2) return std::numeric_limits<std::size_t>::max();
  constexpr std::size_t kCap = std::size_t{1} << 24;
  const auto ring_wins = [&](std::size_t x) {
    return ring_cost(kind, n_pes, x, elem_size) <=
           tree_cost(kind, n_pes, x, elem_size);
  };
  std::size_t hi = 1;
  while (hi <= kCap && !ring_wins(hi)) hi *= 2;
  if (hi > kCap) return std::numeric_limits<std::size_t>::max();
  std::size_t lo = hi / 2;  // ring loses at lo (or lo == 0)
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (ring_wins(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

// ---------------------------------------------------------------------------
// Dispatch bookkeeping
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_total{0};
std::atomic<std::uint64_t> g_auto{0};
std::atomic<std::uint64_t> g_by_algo[kCollAlgoCount] = {};
std::atomic<std::uint64_t> g_by_kind_algo[kCollKindCount][kCollAlgoCount] = {};

}  // namespace

CollDispatchCounts coll_dispatch_counts() {
  CollDispatchCounts out;
  out.total = g_total.load(std::memory_order_relaxed);
  out.auto_resolved = g_auto.load(std::memory_order_relaxed);
  for (int a = 0; a < kCollAlgoCount; ++a) {
    out.by_algo[a] = g_by_algo[a].load(std::memory_order_relaxed);
    for (int k = 0; k < kCollKindCount; ++k) {
      out.by_kind_algo[k][a] =
          g_by_kind_algo[k][a].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void reset_coll_dispatch_counts() {
  g_total.store(0, std::memory_order_relaxed);
  g_auto.store(0, std::memory_order_relaxed);
  for (int a = 0; a < kCollAlgoCount; ++a) {
    g_by_algo[a].store(0, std::memory_order_relaxed);
    for (int k = 0; k < kCollKindCount; ++k) {
      g_by_kind_algo[k][a].store(0, std::memory_order_relaxed);
    }
  }
}

const CollectivePolicy& active_collective_policy() {
  // PE fibers are multiplexed N:M over pooled worker threads whose
  // thread_locals outlive any single Machine, and the allocator may hand a
  // later Machine the same address — so the cache is keyed by the
  // never-reused instance_id, not the Machine pointer.
  // The link-fault version joins the key: a scripted link going down (or
  // healing) rebuilds the policy, so routes, mean hops, and level stacks
  // re-derive from the degraded reachability view.
  thread_local std::uint64_t cached_for = 0;  // instance ids start at 1
  thread_local std::uint64_t cached_link_version = 0;
  thread_local CollectivePolicy cached;
  const Machine& machine = xbrtime_ctx().machine();
  const std::uint64_t link_version = machine.network().link_faults().version();
  if (cached_for != machine.instance_id() ||
      cached_link_version != link_version) {
    cached = CollectivePolicy(machine.config());
    if (link_version != 0) {
      cached.apply_link_faults(machine.network().link_faults().down_pairs(),
                               machine.config());
    }
    cached_for = machine.instance_id();
    cached_link_version = link_version;
  }
  return cached;
}

namespace detail {

CollDecision resolve_and_record(CollKind kind, int n_pes, std::size_t nelems,
                                std::size_t elem_size, bool world) {
  const CollectivePolicy& policy = active_collective_policy();
  const CollDecision d =
      policy.decide(kind, n_pes, nelems, elem_size, world);
  g_total.fetch_add(1, std::memory_order_relaxed);
  if (policy.forced() == CollAlgo::kAuto) {
    g_auto.fetch_add(1, std::memory_order_relaxed);
  }
  g_by_algo[static_cast<int>(d.algo)].fetch_add(1, std::memory_order_relaxed);
  g_by_kind_algo[static_cast<int>(kind)][static_cast<int>(d.algo)].fetch_add(
      1, std::memory_order_relaxed);
  xbrtime_ctx().trace().record(
      EventKind::kCollDispatch, -1,
      (static_cast<std::uint64_t>(kind) << 8) |
          static_cast<std::uint64_t>(d.algo),
      nelems * elem_size);
  return d;
}

}  // namespace detail

}  // namespace xbgas
