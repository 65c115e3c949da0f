// Ablation A7: locality-aware two-level broadcast (paper §7: "location
// aware communication optimization using the xBGAS OLB") vs the flat
// binomial tree, on a cluster fabric (cheap on-node links, expensive
// node-boundary crossings — the structure OLB object IDs expose). The flat
// tree with a node-aligned root already behaves hierarchically (recursive
// halving sends far-first on sequential ranks, §4.3); the win appears for
// unaligned roots and non-power-of-two node counts, where the flat tree
// crosses boundaries at several stages.
//
//   bench_ablation_hierarchical [--pes 8] [--group 4] [--remote-hops 40]
//                               [--elems 256] [--json PATH]

#include <cstdio>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/table.hpp"
#include "collectives/hierarchy.hpp"
#include "common/cli.hpp"
#include "common/strfmt.hpp"

constexpr std::string_view kFlags[] = {
    "elems", "group", "json", "pes", "remote-hops",
};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const int n = static_cast<int>(args.get_int("pes", 8));
  const int group = static_cast<int>(args.get_int("group", 4));
  const int remote_hops = static_cast<int>(args.get_int("remote-hops", 40));
  const auto nelems = static_cast<std::size_t>(args.get_int("elems", 256));

  std::printf("== Ablation A7: flat binomial vs locality-aware two-level "
              "broadcast (%d PEs, nodes of %d, boundary = %d hops) ==\n",
              n, group, remote_hops);

  const xbgas::HierShape two_level{{group}, /*radix=*/2, /*chunk=*/0};
  xbgas::AsciiTable table({"root", "flat tree", "two-level", "speedup"});
  for (int root = 0; root < n; ++root) {
    xbgas::MachineConfig config = xbgas::machine_config_from_cli(args, n);
    config.topology_name = xbgas::strfmt("cluster%dx%d", group, remote_hops);
    config.net.per_hop_cycles = 200;  // boundary crossings dominate
    xbgas::Machine machine(config);

    std::uint64_t flat_cycles = 0, hier_cycles = 0;
    machine.run([&](xbgas::PeContext& pe) {
      xbgas::xbrtime_init();
      auto* buf =
          static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
      auto* src =
          static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
      for (std::size_t i = 0; i < nelems; ++i) src[i] = 11;
      xbgas::xbrtime_barrier();
      // Warm both forwarding sets.
      xbgas::broadcast(buf, src, nelems, 1, root);
      xbgas::xbrtime_barrier();
      xbgas::hier_broadcast(buf, src, nelems, 1, root, two_level);

      const std::uint64_t t0 = pe.clock().cycles();
      xbgas::broadcast(buf, src, nelems, 1, root);
      xbgas::xbrtime_barrier();
      const std::uint64_t t1 = pe.clock().cycles();
      xbgas::hier_broadcast(buf, src, nelems, 1, root, two_level);
      xbgas::xbrtime_barrier();
      const std::uint64_t t2 = pe.clock().cycles();
      if (pe.rank() == 0) {
        flat_cycles = t1 - t0;
        hier_cycles = t2 - t1;
      }
      xbgas::xbrtime_barrier();
      xbgas::xbrtime_free(src);
      xbgas::xbrtime_free(buf);
      xbgas::xbrtime_close();
    });
    xbgas::emit_observability(machine, args);

    table.add_row(
        {xbgas::AsciiTable::cell(static_cast<long long>(root)),
         xbgas::AsciiTable::cell(static_cast<unsigned long long>(flat_cycles)),
         xbgas::AsciiTable::cell(static_cast<unsigned long long>(hier_cycles)),
         xbgas::strfmt("%.2fx", hier_cycles > 0
                                    ? static_cast<double>(flat_cycles) /
                                          static_cast<double>(hier_cycles)
                                    : 0.0)});
  }
  table.print();
  std::printf("(speedup > 1: the two-level scheme wins; node-aligned roots "
              "are where the flat tree is already implicitly hierarchical)\n");
  if (args.has("json")) {
    xbgas::write_tables_json(args.get("json", ""), "ablation_hierarchical",
                             {{"cycles", &table}});
  }
  return 0;
}
