#include "collectives/tuner.hpp"

#include <limits>

#include "collectives/ops.hpp"
#include "machine/machine.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {

namespace {

constexpr CollKind kAllKinds[] = {CollKind::kBroadcast, CollKind::kReduce,
                                  CollKind::kAllreduce, CollKind::kAllgather};

/// Run one candidate schedule for one (kind, size) point through the same
/// family switch dispatch uses, without its accounting; every PE calls this
/// with identical arguments (SPMD).
void run_candidate(CollKind kind, const CollDecision& d, std::size_t nelems,
                   std::size_t per, long* dest, long* src) {
  Communicator& world = world_comm();
  constexpr SchedMode kMode = SchedMode::kBlocking;
  switch (kind) {
    case CollKind::kBroadcast:
      detail::run_broadcast(d, kMode, dest, src, nelems, 1, 0, world);
      break;
    case CollKind::kReduce:
      detail::run_reduce<OpSum>(d, kMode, dest, src, nelems, 1, 0, world);
      break;
    case CollKind::kAllreduce:
      detail::run_reduce_all<OpSum>(d, kMode, dest, src, nelems, 1, world);
      break;
    case CollKind::kAllgather:
      detail::run_fcollect(d, kMode, dest, src, per, world);
      break;
  }
}

}  // namespace

std::vector<TuneCandidate> default_tune_candidates(const MachineConfig& base) {
  const CollectivePolicy policy(base, CollAlgo::kTree);
  const bool hier_ok = policy.hier_eligible(CollKind::kBroadcast, base.n_pes);
  std::vector<TuneCandidate> cands;
  for (const int r : {2, 4, 8}) {
    cands.push_back(TuneCandidate{CollAlgo::kTree, r, 0});
  }
  if (base.n_pes >= 2) {
    for (const std::size_t c : {std::size_t{0}, std::size_t{256},
                                std::size_t{2048}}) {
      cands.push_back(TuneCandidate{CollAlgo::kRing, 2, c});
    }
  }
  if (hier_ok) {
    for (const int r : {2, 4, 8}) {
      cands.push_back(TuneCandidate{CollAlgo::kHier, r, 0});
    }
  }
  return cands;
}

TuneTable build_tune_table(const MachineConfig& base,
                           const std::vector<std::size_t>& sizes,
                           const std::vector<TuneCandidate>& candidates,
                           std::vector<TuneMeasurement>* measurements) {
  const auto n = static_cast<std::size_t>(base.n_pes);

  // Normalized points: allgather is keyed on the total concatenation.
  struct Point {
    CollKind kind;
    std::size_t nelems;  ///< total elements moved
    std::size_t per;     ///< per-PE elements (allgather only)
  };
  std::vector<Point> points;
  for (const CollKind kind : kAllKinds) {
    for (const std::size_t s : sizes) {
      if (kind == CollKind::kAllgather) {
        const std::size_t per = std::max<std::size_t>(s / n, 1);
        points.push_back(Point{kind, per * n, per});
      } else {
        points.push_back(Point{kind, s, 0});
      }
    }
  }

  std::size_t max_elems = 1;
  for (const auto& p : points) max_elems = std::max(max_elems, p.nelems);

  std::vector<std::vector<std::uint64_t>> cycles(
      candidates.size(), std::vector<std::uint64_t>(points.size(), 0));

  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const TuneCandidate& cand = candidates[c];
    // Dispatch is bypassed: the candidate's decision runs directly. The
    // hier family still reads its level stack from the machine's policy,
    // so keep that policy free of any loaded tune table.
    MachineConfig config = base;
    config.coll_algo = "tree";
    config.coll_tune_table.clear();
    Machine machine(config);
    const CollDecision d{
        .algo = cand.algo, .radix = cand.radix, .chunk = cand.chunk};
    std::vector<std::uint64_t>& row = cycles[c];
    machine.run([&](PeContext& pe) {
      xbrtime_init();
      auto* dest = static_cast<long*>(
          xbrtime_malloc(max_elems * sizeof(long)));
      auto* src = static_cast<long*>(
          xbrtime_malloc(max_elems * sizeof(long)));
      for (std::size_t i = 0; i < max_elems; ++i) {
        src[i] = static_cast<long>(i + 1);
      }
      for (std::size_t p = 0; p < points.size(); ++p) {
        const Point& pt = points[p];
        // Warm once (forwarding sets, staging high-water), then measure.
        run_candidate(pt.kind, d, pt.nelems, pt.per, dest, src);
        xbrtime_barrier();
        const std::uint64_t t0 = pe.clock().cycles();
        run_candidate(pt.kind, d, pt.nelems, pt.per, dest, src);
        xbrtime_barrier();  // clocks meet: rank-0 delta is the makespan
        const std::uint64_t t1 = pe.clock().cycles();
        if (pe.rank() == 0) row[p] = t1 - t0;
      }
      xbrtime_free(src);
      xbrtime_free(dest);
      xbrtime_close();
    });
  }

  TuneTable table;
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::size_t best = candidates.size();
    std::uint64_t best_cycles = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (measurements != nullptr) {
        measurements->push_back(TuneMeasurement{
            points[p].kind, points[p].nelems,
            points[p].nelems * sizeof(long), candidates[c], cycles[c][p]});
      }
      if (cycles[c][p] < best_cycles) {
        best_cycles = cycles[c][p];
        best = c;
      }
    }
    if (best == candidates.size()) continue;
    const TuneCandidate& w = candidates[best];
    table.insert(TuneEntry{points[p].kind, base.n_pes,
                           points[p].nelems * sizeof(long), w.algo, w.radix,
                           w.chunk});
  }
  return table;
}

TuneTable build_tune_table(const MachineConfig& base,
                           const std::vector<std::size_t>& sizes,
                           std::vector<TuneMeasurement>* measurements) {
  return build_tune_table(base, sizes, default_tune_candidates(base),
                          measurements);
}

}  // namespace xbgas
