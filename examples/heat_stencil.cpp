// 1-D heat diffusion with halo exchange over non-blocking put — the
// communication/computation overlap pattern the paper's non-blocking
// get/put forms exist for (§3.3). Each PE owns a slab of the rod; every
// step it pushes its boundary cells into its neighbours' halo slots with
// xbr_put_nb, computes the interior while the transfer is "in flight", and
// completes the halo at the barrier.
//
//   ./heat_stencil [--pes 4] [--cells-per-pe 1024] [--steps 500]

#include <cmath>
#include <cstdio>
#include <vector>

#include "benchlib/options.hpp"
#include "collectives/collectives.hpp"
#include "common/cli.hpp"
#include "xbrtime/rma.hpp"

constexpr std::string_view kFlags[] = {"cells-per-pe", "pes", "steps"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {xbgas::kMachineFlags, kFlags});
  const int n_pes = static_cast<int>(args.get_int("pes", 4));
  const auto cells = static_cast<std::size_t>(args.get_int("cells-per-pe", 1024));
  const int steps = static_cast<int>(args.get_int("steps", 500));

  xbgas::Machine machine(xbgas::machine_config_from_cli(args, n_pes));
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    const int me = xbgas::xbrtime_mype();
    const int n = xbgas::xbrtime_num_pes();

    // Layout: [halo_left | cells... | halo_right], symmetric so neighbours
    // can put into the halo slots directly.
    auto* rod = static_cast<double*>(
        xbgas::xbrtime_malloc((cells + 2) * sizeof(double)));
    std::vector<double> next(cells + 2, 0.0);
    for (std::size_t i = 0; i < cells + 2; ++i) rod[i] = 0.0;
    if (me == 0) rod[1] = 1000.0;              // hot end
    if (me == n - 1) rod[cells] = -1000.0;     // cold end
    xbgas::xbrtime_barrier();

    const double alpha = 0.25;
    for (int step = 0; step < steps; ++step) {
      // Push boundary cells into neighbour halos, non-blocking.
      if (me > 0) {
        xbgas::xbr_put_nb(rod + cells + 1, rod + 1, 1, 1, me - 1);
      }
      if (me < n - 1) {
        xbgas::xbr_put_nb(rod, rod + cells, 1, 1, me + 1);
      }

      // Interior update overlaps with the modeled transfer latency.
      for (std::size_t i = 2; i <= cells - 1; ++i) {
        next[i] = rod[i] + alpha * (rod[i - 1] - 2 * rod[i] + rod[i + 1]);
      }

      // Barrier completes the non-blocking puts (halos are now valid) and
      // synchronizes the step.
      xbgas::xbrtime_barrier();
      next[1] = rod[1] + alpha * (rod[0] - 2 * rod[1] + rod[2]);
      next[cells] =
          rod[cells] + alpha * (rod[cells - 1] - 2 * rod[cells] + rod[cells + 1]);
      // Fixed-temperature ends.
      if (me == 0) next[1] = 1000.0;
      if (me == n - 1) next[cells] = -1000.0;
      for (std::size_t i = 1; i <= cells; ++i) rod[i] = next[i];
      xbgas::xbrtime_barrier();
    }

    // Global energy via reduction: with symmetric hot/cold ends it trends
    // to ~0 as the profile becomes linear.
    auto* local_sum = static_cast<double*>(xbgas::xbrtime_malloc(sizeof(double)));
    *local_sum = 0.0;
    for (std::size_t i = 1; i <= cells; ++i) *local_sum += rod[i];
    double total = 0.0;
    xbgas::reduce<xbgas::OpSum>(&total, local_sum, 1, 1, 0);
    if (me == 0) {
      std::printf("heat stencil: %d PEs x %zu cells, %d steps\n", n, cells,
                  steps);
      std::printf("  total heat = %.3f (antisymmetric setup -> ~0)\n", total);
      std::printf("  simulated time: %.3f ms\n",
                  pe.clock().seconds(1e9) * 1e3);
    }
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(local_sum);
    xbgas::xbrtime_free(rod);
    xbgas::xbrtime_close();
  });
  return 0;
}
