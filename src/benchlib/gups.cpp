#include "benchlib/gups.hpp"

#include "collectives/collectives.hpp"
#include "collectives/composed.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "xbrtime/rma.hpp"

namespace xbgas {

namespace {

/// Cycles charged per update for the benchmark's own work between memory
/// operations: the polynomial stream step, index masking, owner/offset
/// arithmetic and loop control, as executed by the interpreted RISC-V
/// environment the paper measures (a few hundred Spike-interpreted
/// instructions per update).
constexpr std::uint64_t kUpdateComputeCycles = 300;

}  // namespace

GupsResult run_gups(Machine& machine, const GupsConfig& config) {
  const int n = machine.n_pes();
  const std::uint64_t total_entries = std::uint64_t{1}
                                      << config.log2_table_entries;
  XBGAS_CHECK(total_entries % static_cast<std::uint64_t>(n) == 0,
              "table entries must divide evenly across PEs");
  const std::uint64_t local_entries =
      total_entries / static_cast<std::uint64_t>(n);
  XBGAS_CHECK(is_pow2(local_entries), "per-PE table slice must be 2^k");
  const unsigned local_shift = floor_log2(local_entries);

  machine.reset_time_and_stats();

  const std::uint64_t updates_per_pe =
      config.updates_per_pe != 0
          ? config.updates_per_pe
          : 4 * total_entries / static_cast<std::uint64_t>(n);

  GupsResult result;
  result.n_pes = n;
  result.total_updates = updates_per_pe * static_cast<std::uint64_t>(n);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    const int me = pe.rank();

    // Distributed table.
    auto* table = static_cast<std::uint64_t*>(
        xbrtime_malloc(local_entries * sizeof(std::uint64_t)));
    XBGAS_CHECK(table != nullptr, "GUPs table allocation failed");
    for (std::uint64_t i = 0; i < local_entries; ++i) {
      table[i] = static_cast<std::uint64_t>(me) * local_entries + i;
    }

    // Broadcast run parameters from PE 0 (the paper's benchmarks route
    // their setup through the broadcast collective).
    auto* params = static_cast<std::uint64_t*>(
        xbrtime_malloc(2 * sizeof(std::uint64_t)));
    std::uint64_t src_params[2] = {updates_per_pe, total_entries};
    broadcast(params, src_params, 2, 1, /*root=*/0);
    const std::uint64_t updates = params[0];
    const std::uint64_t index_mask = params[1] - 1;

    auto apply_stream = [&](bool) {
      GupsStream stream = GupsStream::at(
          static_cast<std::int64_t>(static_cast<std::uint64_t>(me) * updates));
      for (std::uint64_t u = 0; u < updates; ++u) {
        const std::uint64_t ran = stream.next();
        const std::uint64_t g = ran & index_mask;
        const int owner = static_cast<int>(g >> local_shift);
        const std::uint64_t offset = g & (local_entries - 1);
        pe.clock().advance(kUpdateComputeCycles);
        xbr_amo_xor(table + offset, ran, owner);
      }
    };

    // --- timed update phase -------------------------------------------
    xbrtime_barrier();
    const std::uint64_t t0 = pe.clock().cycles();
    apply_stream(true);
    xbrtime_barrier();
    const std::uint64_t t1 = pe.clock().cycles();

    if (me == 0) {
      result.cycles = t1 - t0;
    }

    // --- verification (untimed): reapplying the stream XORs every update
    // out again, so the table must return to its initial contents.
    std::uint64_t errors = 0;
    if (config.verify) {
      apply_stream(false);
      xbrtime_barrier();
      for (std::uint64_t i = 0; i < local_entries; ++i) {
        if (table[i] !=
            static_cast<std::uint64_t>(me) * local_entries + i) {
          ++errors;
        }
      }
    }
    auto* err_buf =
        static_cast<std::uint64_t*>(xbrtime_malloc(sizeof(std::uint64_t)));
    *err_buf = errors;
    auto* err_sum =
        static_cast<std::uint64_t*>(xbrtime_malloc(sizeof(std::uint64_t)));
    reduce_all<OpSum>(err_sum, err_buf, 1, 1);
    if (me == 0) {
      result.errors = *err_sum;
    }

    xbrtime_free(err_sum);
    xbrtime_free(err_buf);
    xbrtime_free(params);
    xbrtime_free(table);
    xbrtime_close();
  });

  result.seconds =
      static_cast<double>(result.cycles) / SimClock::kDefaultHz;
  if (result.seconds > 0) {
    result.gups =
        static_cast<double>(result.total_updates) / result.seconds / 1e9;
    result.mops_total = result.gups * 1e3;
    result.mops_per_pe = result.mops_total / n;
  }
  return result;
}

}  // namespace xbgas
