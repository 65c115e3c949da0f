// Write-combining + nbi pipelining stress bench (docs/COLLECTIVES.md,
// docs/OBSERVABILITY.md): two experiments, both self-checking, exits
// nonzero unless every check holds.
//
//   1. GUPs small-put storm: every PE scatters single-word updates
//      round-robin over the other PEs into its own rank-owned stripe of
//      each target's table. Run once with plain blocking puts and once
//      through the write combiner: the tables must checksum identically,
//      the coalesced storm must be at least 2x cheaper in modeled cycles,
//      the rma.coalesced.* counters must show real batching (more enqueued
//      messages than flushes), and a rerun of the coalesced storm must
//      reproduce the cycle count exactly.
//
//   2. Large-message allreduce at scale: blocking ring allreduce vs the
//      chunked nbi ring (reduce-scatter pulls overlap the combine, chunk
//      transfers overlap each other). Both must match the host golden sum;
//      the pipelined schedule must beat the blocking ring.
//
//   bench_gups [--pes 16] [--updates 8192] [--slots 256]
//              [--allreduce-pes 64] [--nelems 65536]
//              [--json BENCH_gups.json] [--trace-out PATH] [--counters json]
//
// Observability is emitted once per configuration (sweep idiom,
// docs/OBSERVABILITY.md): the counters print five times and the trace
// file holds the final (nbi allreduce) run.

#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "collectives/composed.hpp"
#include "collectives/nbi.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "machine/machine.hpp"
#include "xbrtime/nbi.hpp"
#include "xbrtime/runtime.hpp"
#include "xbrtime/wc.hpp"

namespace {

/// Deterministic GUPs update value: pure function of (seed, writer, i).
std::uint64_t gup_val(std::uint64_t seed, int writer, std::size_t i) {
  xbgas::SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(writer) << 32) ^
                        i);
  return rng.next();
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

struct StormResult {
  std::uint64_t max_cycles = 0;  ///< slowest PE's storm span
  std::uint64_t checksum = 0;    ///< fold of every PE's landed table
};

/// One full storm over `n_pes`: `updates` single-word puts per PE,
/// round-robin targets, rank-owned disjoint stripes (bitwise-comparable,
/// race-free). Returns the slowest PE's modeled span and a machine-wide
/// table checksum.
StormResult run_storm(xbgas::MachineConfig config, std::size_t slots,
                      std::size_t updates, std::uint64_t seed, bool coalesce,
                      const xbgas::CliArgs& args) {
  const int n_pes = config.n_pes;
  std::vector<std::uint64_t> spans(static_cast<std::size_t>(n_pes), 0);
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(n_pes), 0);
  xbgas::Machine machine(config);
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    const int me = pe.rank();
    const int n = pe.n_pes();
    const std::size_t table_words = static_cast<std::size_t>(n) * slots;
    auto* table = static_cast<std::uint64_t*>(
        xbgas::xbrtime_malloc(table_words * sizeof(std::uint64_t)));
    for (std::size_t s = 0; s < table_words; ++s) table[s] = 0;
    xbgas::xbrtime_barrier();
    if (coalesce) {
      xbgas::xbr_wc_enable(/*threshold_bytes=*/64, /*capacity_entries=*/64);
    }
    const std::uint64_t t0 = pe.clock().cycles();
    for (std::size_t i = 0; i < updates; ++i) {
      const int target =
          n == 1 ? 0 : (me + 1 + static_cast<int>(i) % (n - 1)) % n;
      const std::size_t slot =
          static_cast<std::size_t>(me) * slots + i % slots;
      std::uint64_t v = gup_val(seed, me, i);
      xbgas::xbr_put_wc(table + slot, &v, 1, 1, target);
    }
    xbgas::xbr_fence();  // drains the combiner and settles modeled time
    spans[static_cast<std::size_t>(me)] = pe.clock().cycles() - t0;
    if (coalesce) xbgas::xbr_wc_disable();
    xbgas::xbrtime_barrier();
    std::uint64_t h = 0;
    for (std::size_t s = 0; s < table_words; ++s) h = fold(h, table[s]);
    sums[static_cast<std::size_t>(me)] = h;
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(table);
    xbgas::xbrtime_close();
  });
  xbgas::emit_observability(machine, args);
  StormResult r;
  for (int p = 0; p < n_pes; ++p) {
    r.max_cycles = std::max(r.max_cycles, spans[static_cast<std::size_t>(p)]);
    r.checksum = fold(r.checksum, sums[static_cast<std::size_t>(p)]);
  }
  return r;
}

struct AllreduceResult {
  std::uint64_t max_cycles = 0;
  bool correct = true;
};

/// One allreduce over `nelems` words on every PE of `config`, blocking ring
/// or chunked-nbi ring, verified elementwise against the host golden sum.
AllreduceResult run_allreduce(xbgas::MachineConfig config, std::size_t nelems,
                              bool nbi, const xbgas::CliArgs& args) {
  const int n_pes = config.n_pes;
  std::vector<std::uint64_t> spans(static_cast<std::size_t>(n_pes), 0);
  std::vector<int> good(static_cast<std::size_t>(n_pes), 0);
  xbgas::Machine machine(config);
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    const int me = pe.rank();
    const int n = pe.n_pes();
    auto* src = static_cast<long*>(
        xbgas::xbrtime_malloc(nelems * sizeof(long)));
    auto* dest = static_cast<long*>(
        xbgas::xbrtime_malloc(nelems * sizeof(long)));
    for (std::size_t j = 0; j < nelems; ++j) {
      src[j] = static_cast<long>((j % 251) + static_cast<std::size_t>(me));
    }
    xbgas::xbrtime_barrier();
    const std::uint64_t t0 = pe.clock().cycles();
    if (nbi) {
      xbgas::CollReq r =
          xbgas::xbr_reduce_all_nbi<xbgas::OpSum>(dest, src, nelems, 1);
      r.wait();
    } else {
      xbgas::reduce_all<xbgas::OpSum>(dest, src, nelems, 1);
    }
    spans[static_cast<std::size_t>(me)] = pe.clock().cycles() - t0;
    bool ok = true;
    for (std::size_t j = 0; j < nelems; ++j) {
      const long want = static_cast<long>(
          (j % 251) * static_cast<std::size_t>(n) +
          static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2);
      ok = ok && dest[j] == want;
    }
    good[static_cast<std::size_t>(me)] = ok ? 1 : 0;
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(dest);
    xbgas::xbrtime_free(src);
    xbgas::xbrtime_close();
  });
  xbgas::emit_observability(machine, args);
  AllreduceResult r;
  for (int p = 0; p < n_pes; ++p) {
    r.max_cycles = std::max(r.max_cycles, spans[static_cast<std::size_t>(p)]);
    r.correct = r.correct && good[static_cast<std::size_t>(p)] == 1;
  }
  return r;
}

}  // namespace

constexpr std::string_view kFlags[] = {
    "allreduce-pes", "json", "nelems", "pes", "slots", "updates",
};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const int n_pes = static_cast<int>(args.get_int("pes", 16));
  const auto slots = static_cast<std::size_t>(args.get_int("slots", 256));
  const auto updates =
      static_cast<std::size_t>(args.get_int("updates", 8192));
  const int ar_pes = static_cast<int>(args.get_int("allreduce-pes", 64));
  const auto nelems =
      static_cast<std::size_t>(args.get_int("nelems", 65536));
  const std::uint64_t seed = 0x6a95ull;
  bool ok = true;

  std::printf(
      "== GUPs write-combining storm (%d PEs, %zu updates/PE, %zu-slot "
      "stripes) ==\n",
      n_pes, updates, slots);

  xbgas::MachineConfig storm_cfg =
      xbgas::machine_config_from_cli(args, n_pes);
  const StormResult off =
      run_storm(storm_cfg, slots, updates, seed, /*coalesce=*/false, args);
  xbgas::reset_wc_counters();
  const StormResult on =
      run_storm(storm_cfg, slots, updates, seed, /*coalesce=*/true, args);
  const xbgas::WcCounters wc = xbgas::wc_counters();
  const StormResult on2 =
      run_storm(storm_cfg, slots, updates, seed, /*coalesce=*/true, args);

  const double speedup =
      on.max_cycles > 0 ? static_cast<double>(off.max_cycles) /
                              static_cast<double>(on.max_cycles)
                        : 0.0;
  const bool bitwise = on.checksum == off.checksum;
  const bool deterministic = on.max_cycles == on2.max_cycles &&
                             on.checksum == on2.checksum;
  const bool batched = wc.flushes > 0 && wc.messages > wc.flushes;
  std::printf(
      "  blocking %llu cycles   coalesced %llu cycles   speedup %.2fx\n",
      static_cast<unsigned long long>(off.max_cycles),
      static_cast<unsigned long long>(on.max_cycles), speedup);
  std::printf(
      "  combiner: %llu puts -> %llu messages in %llu flushes (%llu "
      "bytes)\n",
      static_cast<unsigned long long>(wc.puts),
      static_cast<unsigned long long>(wc.messages),
      static_cast<unsigned long long>(wc.flushes),
      static_cast<unsigned long long>(wc.bytes));
  std::printf("  bitwise %s   deterministic %s   batched %s\n",
              bitwise ? "OK" : "FAIL", deterministic ? "OK" : "FAIL",
              batched ? "OK" : "FAIL");
  ok = ok && bitwise && deterministic && batched && speedup >= 2.0;

  std::printf(
      "== Large-message allreduce: blocking ring vs chunked-nbi ring "
      "(%d PEs, %zu words) ==\n",
      ar_pes, nelems);

  xbgas::MachineConfig ar_cfg = xbgas::machine_config_from_cli(args, ar_pes);
  ar_cfg.coll_algo = "ring";
  // The net defaults model the paper's single shared bus: at 64 PEs a
  // large-message collective is aggregate-bandwidth-bound and every
  // schedule drains at the same rate (bench_fig4 / bench_scaling
  // characterize that regime). To compare SCHEDULES, provision a
  // full-bisection fabric — aggregate byte rate scaled to the per-link rate
  // times the PE count, light per-message occupancy — unless the user
  // pinned the knobs themselves (--fabric-bpc / --fabric-mpc).
  if (!args.has("fabric-bpc")) {
    ar_cfg.net.fabric_bytes_per_cycle =
        ar_cfg.net.link_bytes_per_cycle * ar_pes;
  }
  if (!args.has("fabric-mpc")) ar_cfg.net.fabric_message_cycles = 4;
  // Room for src + dest + the collective staging accumulator.
  ar_cfg.layout.shared_bytes =
      std::max<std::size_t>(ar_cfg.layout.shared_bytes,
                            4 * nelems * sizeof(long));
  const AllreduceResult blocking =
      run_allreduce(ar_cfg, nelems, /*nbi=*/false, args);
  const AllreduceResult pipelined =
      run_allreduce(ar_cfg, nelems, /*nbi=*/true, args);
  const double ar_speedup =
      pipelined.max_cycles > 0
          ? static_cast<double>(blocking.max_cycles) /
                static_cast<double>(pipelined.max_cycles)
          : 0.0;
  std::printf(
      "  blocking ring %llu cycles   nbi pipelined %llu cycles   speedup "
      "%.2fx\n",
      static_cast<unsigned long long>(blocking.max_cycles),
      static_cast<unsigned long long>(pipelined.max_cycles), ar_speedup);
  std::printf("  correct %s   pipelined wins %s\n",
              blocking.correct && pipelined.correct ? "OK" : "FAIL",
              pipelined.max_cycles < blocking.max_cycles ? "OK" : "FAIL");
  ok = ok && blocking.correct && pipelined.correct &&
       pipelined.max_cycles < blocking.max_cycles;

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"gups\",\n");
    std::fprintf(f, "  \"gups\": {\n");
    std::fprintf(f, "    \"n_pes\": %d,\n", n_pes);
    std::fprintf(f, "    \"updates_per_pe\": %zu,\n", updates);
    std::fprintf(f, "    \"cycles_blocking\": %llu,\n",
                 static_cast<unsigned long long>(off.max_cycles));
    std::fprintf(f, "    \"cycles_coalesced\": %llu,\n",
                 static_cast<unsigned long long>(on.max_cycles));
    std::fprintf(f, "    \"speedup\": %.3f,\n", speedup);
    std::fprintf(f, "    \"bitwise_identical\": %s,\n",
                 bitwise ? "true" : "false");
    std::fprintf(f, "    \"deterministic\": %s,\n",
                 deterministic ? "true" : "false");
    std::fprintf(
        f,
        "    \"combiner\": {\"puts\": %llu, \"enqueued\": %llu, "
        "\"flushes\": %llu, \"messages\": %llu, \"bytes\": %llu}\n",
        static_cast<unsigned long long>(wc.puts),
        static_cast<unsigned long long>(wc.enqueued),
        static_cast<unsigned long long>(wc.flushes),
        static_cast<unsigned long long>(wc.messages),
        static_cast<unsigned long long>(wc.bytes));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"allreduce\": {\n");
    std::fprintf(f, "    \"n_pes\": %d,\n", ar_pes);
    std::fprintf(f, "    \"nelems\": %zu,\n", nelems);
    std::fprintf(f, "    \"algo\": \"ring\",\n");
    std::fprintf(f, "    \"cycles_blocking\": %llu,\n",
                 static_cast<unsigned long long>(blocking.max_cycles));
    std::fprintf(f, "    \"cycles_nbi_pipelined\": %llu,\n",
                 static_cast<unsigned long long>(pipelined.max_cycles));
    std::fprintf(f, "    \"speedup\": %.3f,\n", ar_speedup);
    std::fprintf(f, "    \"correct\": %s\n",
                 blocking.correct && pipelined.correct ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"all_ok\": %s\n", ok ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!ok) {
    std::printf("bench_gups: FAILED\n");
    return 1;
  }
  std::printf(
      "bench_gups: coalescing >= 2x, pipelined allreduce wins, all "
      "bitwise-deterministic\n");
  return 0;
}
