// Ablation A1: binomial tree vs linear (flat) collectives across message
// sizes and PE counts (paper §4.1-§4.2: trees win where latency dominates;
// there is "no universally optimal solution").
//
//   bench_ablation_tree_vs_linear [--pes 2,4,8,12,16] [--sizes 1,16,256,4096]
//                                 [--json PATH]
//
// Reports modeled cycles per operation. Two regimes (the paper's §4.1
// point that no algorithm wins everywhere):
//  - default bus-like fabric: every message crosses one shared fabric, so
//    broadcast is bandwidth-bound and tree ~= linear (the tree still wins
//    reduce decisively by parallelizing the combine work);
//  - uncongested network (--fabric-mpc 0 --fabric-bpc 1e9): latency-bound,
//    and the tree's O(log N) critical path beats the root's O(N) issue
//    serialization across the board.

#include <cstdio>
#include <functional>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/table.hpp"
#include "collectives/baseline.hpp"
#include "collectives/collectives.hpp"
#include "common/cli.hpp"
#include "common/strfmt.hpp"

namespace {

using xbgas::PeContext;

/// Modeled cycles per op for a collective run `reps` times on `machine`.
std::uint64_t time_collective(
    xbgas::Machine& machine, std::size_t nelems, int reps,
    const std::function<void(long*, long*, std::size_t)>& op) {
  std::uint64_t cycles = 0;
  machine.reset_time_and_stats();
  machine.run([&](PeContext& pe) {
    xbgas::xbrtime_init();
    auto* a = static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
    auto* b = static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
    for (std::size_t i = 0; i < nelems; ++i) {
      a[i] = static_cast<long>(i) + pe.rank();
      b[i] = 0;
    }
    xbgas::xbrtime_barrier();
    const std::uint64_t t0 = pe.clock().cycles();
    for (int r = 0; r < reps; ++r) {
      op(a, b, nelems);
      xbgas::xbrtime_barrier();  // buffer-reuse fence between reps
    }
    const std::uint64_t t1 = pe.clock().cycles();
    if (pe.rank() == 0) {
      cycles = (t1 - t0) / static_cast<std::uint64_t>(reps);
    }
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(b);
    xbgas::xbrtime_free(a);
    xbgas::xbrtime_close();
  });
  return cycles;
}

}  // namespace

constexpr std::string_view kFlags[] = {"json", "pes", "reps", "sizes"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const std::vector<int> pes = args.get_int_list("pes", {2, 4, 8, 12, 16});
  const std::vector<int> sizes = args.get_int_list("sizes", {1, 16, 256, 4096});
  const int reps = static_cast<int>(args.get_int("reps", 5));

  std::printf("== Ablation A1: binomial tree vs linear collectives "
              "(modeled cycles per op) ==\n");

  xbgas::AsciiTable table({"PEs", "elems", "bcast tree", "bcast linear",
                           "reduce tree", "reduce linear", "tree speedup"});
  for (const int n : pes) {
    for (const int size : sizes) {
      const auto nelems = static_cast<std::size_t>(size);
      xbgas::Machine machine(xbgas::machine_config_from_cli(args, n));

      const auto bcast_tree = time_collective(
          machine, nelems, reps, [](long* a, long* b, std::size_t k) {
            xbgas::broadcast(b, a, k, 1, 0);
          });
      const auto bcast_linear = time_collective(
          machine, nelems, reps, [](long* a, long* b, std::size_t k) {
            xbgas::linear_broadcast(b, a, k, 1, 0);
          });
      const auto reduce_tree = time_collective(
          machine, nelems, reps, [](long* a, long* b, std::size_t k) {
            xbgas::reduce<xbgas::OpSum>(b, a, k, 1, 0);
          });
      const auto reduce_linear = time_collective(
          machine, nelems, reps, [](long* a, long* b, std::size_t k) {
            xbgas::linear_reduce<xbgas::OpSum>(b, a, k, 1, 0);
          });
      xbgas::emit_observability(machine, args);

      table.add_row(
          {xbgas::AsciiTable::cell(static_cast<long long>(n)),
           xbgas::AsciiTable::cell(static_cast<long long>(size)),
           xbgas::AsciiTable::cell(static_cast<unsigned long long>(bcast_tree)),
           xbgas::AsciiTable::cell(static_cast<unsigned long long>(bcast_linear)),
           xbgas::AsciiTable::cell(static_cast<unsigned long long>(reduce_tree)),
           xbgas::AsciiTable::cell(static_cast<unsigned long long>(reduce_linear)),
           xbgas::strfmt("%.2fx", bcast_tree > 0
                                      ? static_cast<double>(bcast_linear) /
                                            static_cast<double>(bcast_tree)
                                      : 0.0)});
    }
  }
  table.print();
  if (args.has("json")) {
    xbgas::write_tables_json(args.get("json", ""), "ablation_tree_vs_linear",
                             {{"cycles", &table}});
  }
  return 0;
}
