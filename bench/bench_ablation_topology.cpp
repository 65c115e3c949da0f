// Ablation A2: the binomial tree across interconnect topologies (paper
// §4.2 motivates the tree precisely because it assumes no topology). Runs
// the same broadcast+reduce pair on flat / ring / torus / hypercube fabrics
// and reports modeled cycles plus topology metrics.
//
//   bench_ablation_topology [--pes 4,8,16] [--elems 256]

#include <cstdio>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/table.hpp"
#include "collectives/collectives.hpp"
#include "common/cli.hpp"
#include "common/strfmt.hpp"
#include "net/topology.hpp"

namespace {

std::uint64_t run_pair(xbgas::Machine& machine, std::size_t nelems, int reps) {
  std::uint64_t cycles = 0;
  machine.reset_time_and_stats();
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    auto* a = static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
    auto* b = static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
    for (std::size_t i = 0; i < nelems; ++i) a[i] = pe.rank() + 1;
    xbgas::xbrtime_barrier();
    const std::uint64_t t0 = pe.clock().cycles();
    for (int r = 0; r < reps; ++r) {
      xbgas::broadcast(b, a, nelems, 1, 0);
      xbgas::reduce<xbgas::OpSum>(a, b, nelems, 1, 0);
      xbgas::xbrtime_barrier();
    }
    const std::uint64_t t1 = pe.clock().cycles();
    if (pe.rank() == 0) cycles = (t1 - t0) / static_cast<std::uint64_t>(reps);
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(b);
    xbgas::xbrtime_free(a);
    xbgas::xbrtime_close();
  });
  return cycles;
}

}  // namespace

constexpr std::string_view kFlags[] = {"elems", "pes", "reps"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const std::vector<int> pes = args.get_int_list("pes", {4, 8, 16});
  const auto nelems = static_cast<std::size_t>(args.get_int("elems", 256));
  const int reps = static_cast<int>(args.get_int("reps", 5));

  std::printf("== Ablation A2: binomial broadcast+reduce across topologies "
              "(%zu elems) ==\n", nelems);

  xbgas::AsciiTable table({"PEs", "topology", "diameter", "mean hops",
                           "cycles/op-pair"});
  for (const int n : pes) {
    for (const char* topo : {"flat", "ring", "torus", "hypercube"}) {
      xbgas::MachineConfig config = xbgas::machine_config_from_cli(args, n);
      config.topology_name = topo;
      xbgas::Machine machine(config);
      const std::uint64_t cycles = run_pair(machine, nelems, reps);
      xbgas::emit_observability(machine, args);
      const xbgas::Topology& t = machine.network().topology();
      table.add_row(
          {xbgas::AsciiTable::cell(static_cast<long long>(n)), t.name(),
           xbgas::AsciiTable::cell(static_cast<long long>(t.diameter())),
           xbgas::strfmt("%.2f", t.mean_hops()),
           xbgas::AsciiTable::cell(static_cast<unsigned long long>(cycles))});
    }
  }
  table.print();
  std::printf("(the tree's cost tracks topology diameter through per-hop "
              "latency; flat == the paper's single-fabric environment)\n");
  return 0;
}
