#include "collectives/schedule.hpp"

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

std::vector<TreeEdge> knomial_broadcast_schedule(int n_pes, int radix) {
  const int stages = knomial_stages(n_pes, radix);
  std::vector<TreeEdge> edges;
  if (n_pes > 1) edges.reserve(static_cast<std::size_t>(n_pes) - 1);
  long long step = 1;
  for (int s = 1; s < stages; ++s) step *= radix;  // radix^(stages-1)
  for (int s = 0; s < stages; ++s) {
    const long long span = step * radix;
    for (long long vr = 0; vr < n_pes; vr += span) {
      for (int j = 1; j < radix; ++j) {
        const long long to = vr + j * step;
        if (to >= n_pes) break;
        edges.push_back(
            TreeEdge{s, static_cast<int>(vr), static_cast<int>(to)});
      }
    }
    step /= radix;
  }
  return edges;
}

std::vector<TreeEdge> knomial_reduce_schedule(int n_pes, int radix) {
  const int stages = knomial_stages(n_pes, radix);
  std::vector<TreeEdge> edges;
  if (n_pes > 1) edges.reserve(static_cast<std::size_t>(n_pes) - 1);
  long long step = 1;
  for (int s = 0; s < stages; ++s) {
    const long long span = step * radix;
    for (long long vr = 0; vr < n_pes; vr += span) {
      for (int j = 1; j < radix; ++j) {
        const long long from = vr + j * step;
        if (from >= n_pes) break;
        // vr (the parent) pulls from's accumulated subtree via get.
        edges.push_back(
            TreeEdge{s, static_cast<int>(from), static_cast<int>(vr)});
      }
    }
    step = span;
  }
  return edges;
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
