// Distributed histogram — the reduction-heavy workload class the paper's
// evaluation targets. Every PE draws samples from a shared distribution,
// bins them locally, and the bin counts are combined with the binomial-tree
// reduction; the summary statistics come back via broadcast. A team variant
// (paper §7 future work) then histograms the even PEs only.
//
//   ./histogram_reduction [--pes 8] [--samples 100000] [--bins 32]

#include <cstdio>
#include <vector>

#include "benchlib/options.hpp"
#include "collectives/collectives.hpp"
#include "collectives/composed.hpp"
#include "collectives/team.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"

constexpr std::string_view kFlags[] = {"bins", "pes", "samples"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {xbgas::kMachineFlags, kFlags});
  const int n_pes = static_cast<int>(args.get_int("pes", 8));
  const auto samples =
      static_cast<std::size_t>(args.get_int("samples", 100000));
  const auto bins = static_cast<std::size_t>(args.get_int("bins", 32));

  xbgas::Machine machine(xbgas::machine_config_from_cli(args, n_pes));
  machine.run([&](xbgas::PeContext&) {
    xbgas::xbrtime_init();
    const int me = xbgas::xbrtime_mype();
    const int n = xbgas::xbrtime_num_pes();

    // Local sampling: sum of two uniforms => triangular distribution.
    auto* local = static_cast<std::int64_t*>(
        xbgas::xbrtime_malloc(bins * sizeof(std::int64_t)));
    std::fill(local, local + bins, 0);
    xbgas::Xoshiro256ss rng(static_cast<std::uint64_t>(me) + 42);
    for (std::size_t s = 0; s < samples; ++s) {
      const double x = 0.5 * (rng.next_double() + rng.next_double());
      ++local[static_cast<std::size_t>(x * static_cast<double>(bins))];
    }

    // Global histogram on every PE (reduce + broadcast composition).
    auto* global = static_cast<std::int64_t*>(
        xbgas::xbrtime_malloc(bins * sizeof(std::int64_t)));
    xbgas::reduce_all<xbgas::OpSum>(global, local, bins, 1);

    if (me == 0) {
      std::printf("Global histogram over %d PEs x %zu samples:\n", n, samples);
      std::int64_t peak = 1;
      for (std::size_t b = 0; b < bins; ++b) peak = std::max(peak, global[b]);
      for (std::size_t b = 0; b < bins; ++b) {
        const int width = static_cast<int>(60 * global[b] / peak);
        std::printf("  bin %2zu %8lld |%.*s\n", b,
                    static_cast<long long>(global[b]), width,
                    "############################################################");
      }
    }

    // Min/max occupancy via dedicated reductions.
    std::int64_t lo = 0, hi = 0;
    xbgas::reduce<xbgas::OpMin>(&lo, local, 1, 1, 0);
    xbgas::reduce<xbgas::OpMax>(&hi, local, 1, 1, 0);
    if (me == 0) {
      std::printf("bin 0 occupancy across PEs: min %lld, max %lld\n",
                  static_cast<long long>(lo), static_cast<long long>(hi));
    }

    // Team variant: even PEs only (future-work subset collectives).
    if (n >= 4 && me % 2 == 0) {
      xbgas::Team evens(0, 2, n / 2);
      auto* team_hist = static_cast<std::int64_t*>(
          xbgas::xbrtime_malloc(bins * sizeof(std::int64_t)));
      xbgas::reduce_all<xbgas::OpSum>(team_hist, local, bins, 1, evens);
      if (evens.rank() == 0) {
        std::int64_t total = 0;
        for (std::size_t b = 0; b < bins; ++b) total += team_hist[b];
        std::printf("even-PE team histogram total: %lld samples (%d PEs)\n",
                    static_cast<long long>(total), evens.n_pes());
      }
      xbgas::xbrtime_free(team_hist);
    } else if (n >= 4) {
      // Odd PEs still participate in the collective frees' world barriers.
      auto* team_hist = static_cast<std::int64_t*>(
          xbgas::xbrtime_malloc(bins * sizeof(std::int64_t)));
      xbgas::xbrtime_free(team_hist);
    }

    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(global);
    xbgas::xbrtime_free(local);
    xbgas::xbrtime_close();
  });
  return 0;
}
