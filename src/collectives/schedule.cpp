#include "collectives/schedule.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace xbgas {

int schedule_stages(int n_pes) {
  XBGAS_CHECK(n_pes >= 1, "n_pes must be >= 1");
  return static_cast<int>(ceil_log2(static_cast<std::uint64_t>(n_pes)));
}

int knomial_stages(int n_pes, int radix) {
  XBGAS_CHECK(n_pes >= 1, "n_pes must be >= 1");
  XBGAS_CHECK(radix >= 2, "k-nomial radix must be >= 2");
  int stages = 0;
  long long reach = 1;
  while (reach < n_pes) {
    reach *= radix;
    ++stages;
  }
  return stages;
}

namespace {

/// Every vrank's own edges, concatenated and stably sorted by stage: the
/// full schedule in execution order (stage, then vrank, then j).
template <class OwnEdges>
std::vector<TreeEdge> all_edges(int n_pes, int radix, OwnEdges own) {
  (void)knomial_stages(n_pes, radix);  // validates n_pes and radix
  std::vector<TreeEdge> edges;
  for (int v = 0; v < n_pes; ++v) {
    const auto mine = own(n_pes, radix, v);
    edges.insert(edges.end(), mine.begin(), mine.end());
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const TreeEdge& a, const TreeEdge& b) {
                     return a.stage < b.stage;
                   });
  return edges;
}

}  // namespace

std::vector<TreeEdge> knomial_broadcast_schedule(int n_pes, int radix) {
  return all_edges(n_pes, radix, detail::knomial_broadcast_sends);
}

std::vector<TreeEdge> knomial_reduce_schedule(int n_pes, int radix) {
  return all_edges(n_pes, radix, detail::knomial_reduce_pulls);
}

namespace detail {

std::vector<TreeEdge> knomial_broadcast_sends(int n_pes, int radix,
                                              int vrank) {
  const int stages = knomial_stages(n_pes, radix);
  std::vector<TreeEdge> edges;
  long long step = 1;
  for (int s = 1; s < stages; ++s) step *= radix;  // radix^(stages-1)
  for (int s = 0; s < stages; ++s, step /= radix) {
    if (vrank % (step * radix) != 0) continue;  // not a holder yet
    for (int j = 1; j < radix; ++j) {
      const long long to = vrank + j * step;
      if (to >= n_pes) break;
      edges.push_back(TreeEdge{s, vrank, static_cast<int>(to)});
    }
  }
  return edges;
}

std::vector<TreeEdge> knomial_reduce_pulls(int n_pes, int radix, int vrank) {
  const int stages = knomial_stages(n_pes, radix);
  std::vector<TreeEdge> edges;
  long long step = 1;
  for (int s = 0; s < stages; ++s, step *= radix) {
    if (vrank % (step * radix) != 0) continue;  // pulled by a parent earlier
    for (int j = 1; j < radix; ++j) {
      const long long from = vrank + j * step;
      if (from >= n_pes) break;
      edges.push_back(TreeEdge{s, static_cast<int>(from), vrank});
    }
  }
  return edges;
}

}  // namespace detail

std::vector<TreeEdge> broadcast_schedule(int n_pes) {
  return knomial_broadcast_schedule(n_pes, 2);
}

std::vector<TreeEdge> reduce_schedule(int n_pes) {
  return knomial_reduce_schedule(n_pes, 2);
}

}  // namespace xbgas
