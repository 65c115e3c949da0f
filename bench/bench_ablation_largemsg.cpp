// Ablation A6: binomial tree vs segmented ring (pipelined) broadcast across
// message sizes — the paper's §7 future-work item ("algorithms optimized
// for larger message sizes") demonstrated on two fabrics:
//  - bus (the default shared-fabric profile): pipelining cannot win — there
//    is only one link, so broadcast is bandwidth-bound either way and the
//    ring's extra steps only add synchronization;
//  - net (switched fabric, all links concurrent): the classic crossover —
//    the tree wins small messages (short critical path), the ring wins
//    large ones by keeping every link busy with segments.
//
//   bench_ablation_largemsg [--pes 8] [--sizes 16,256,4096,65536]
//                           [--segments 0 (heuristic)] [--json PATH]

#include <cstdio>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/table.hpp"
#include "collectives/ring.hpp"
#include "common/cli.hpp"
#include "common/strfmt.hpp"

constexpr std::string_view kFlags[] = {
    "json", "pes", "reps", "segments", "sizes",
};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const int n = static_cast<int>(args.get_int("pes", 8));
  const std::vector<int> sizes =
      args.get_int_list("sizes", {16, 256, 4096, 65536});
  const auto segments = static_cast<std::size_t>(args.get_int("segments", 0));
  const int reps = static_cast<int>(args.get_int("reps", 3));

  std::printf("== Ablation A6: binomial tree vs segmented ring broadcast "
              "(%d PEs, modeled cycles) ==\n", n);

  xbgas::AsciiTable table({"elems", "tree (bus)", "ring (bus)", "tree (net)",
                           "ring (net)", "net ring/tree"});
  for (const int size : sizes) {
    const auto nelems = static_cast<std::size_t>(size);
    std::uint64_t cycles[2][2] = {};  // [fabric][algorithm]
    for (int fabric = 0; fabric < 2; ++fabric) {
      xbgas::MachineConfig config = xbgas::machine_config_from_cli(args, n);
      if (fabric == 1) {  // switched network: links run concurrently
        config.net.fabric_message_cycles = 0;
        config.net.fabric_bytes_per_cycle = 1e12;
      }
      xbgas::Machine machine(config);

      std::uint64_t tree_cycles = 0, ring_cycles = 0;
      machine.run([&](xbgas::PeContext& pe) {
      xbgas::xbrtime_init();
      auto* buf =
          static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
      // src also lives in the arena so the cache model charges both
      // algorithms the same real memory costs.
      auto* src =
          static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
      for (std::size_t i = 0; i < nelems; ++i) src[i] = 7;
      xbgas::xbrtime_barrier();
      // Warm passes: each algorithm has a distinct forwarding set (remote
      // writes don't warm the receiver's cache), so run both once.
      xbgas::broadcast(buf, src, nelems, 1, 0);
      xbgas::xbrtime_barrier();
      xbgas::ring_broadcast(buf, src, nelems, 1, 0, xbgas::world_comm(),
                            segments);
      xbgas::xbrtime_barrier();

      std::uint64_t t_tree = 0, t_ring = 0;
      for (int r = 0; r < reps; ++r) {
        const std::uint64_t t0 = pe.clock().cycles();
        xbgas::broadcast(buf, src, nelems, 1, 0);
        xbgas::xbrtime_barrier();
        const std::uint64_t t1 = pe.clock().cycles();
        xbgas::ring_broadcast(buf, src, nelems, 1, 0,
                              xbgas::world_comm(), segments);
        xbgas::xbrtime_barrier();
        const std::uint64_t t2 = pe.clock().cycles();
        t_tree += t1 - t0;
        t_ring += t2 - t1;
      }
        if (pe.rank() == 0) {
          tree_cycles = t_tree / static_cast<std::uint64_t>(reps);
          ring_cycles = t_ring / static_cast<std::uint64_t>(reps);
        }
        xbgas::xbrtime_barrier();
        xbgas::xbrtime_free(src);
        xbgas::xbrtime_free(buf);
        xbgas::xbrtime_close();
      });
      xbgas::emit_observability(machine, args);
      cycles[fabric][0] = tree_cycles;
      cycles[fabric][1] = ring_cycles;
    }

    table.add_row(
        {xbgas::AsciiTable::cell(static_cast<long long>(size)),
         xbgas::AsciiTable::cell(static_cast<unsigned long long>(cycles[0][0])),
         xbgas::AsciiTable::cell(static_cast<unsigned long long>(cycles[0][1])),
         xbgas::AsciiTable::cell(static_cast<unsigned long long>(cycles[1][0])),
         xbgas::AsciiTable::cell(static_cast<unsigned long long>(cycles[1][1])),
         xbgas::strfmt("%.2f", cycles[1][0] > 0
                                   ? static_cast<double>(cycles[1][1]) /
                                         static_cast<double>(cycles[1][0])
                                   : 0.0)});
  }
  table.print();
  std::printf("(ring/tree < 1 marks where pipelining wins; the crossover is "
              "the §7 motivation for size-adaptive algorithm selection)\n");
  if (args.has("json")) {
    xbgas::write_tables_json(args.get("json", ""), "ablation_largemsg",
                             {{"cycles", &table}});
  }
  return 0;
}
