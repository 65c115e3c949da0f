// Ablation A4: barrier algorithm under the collectives' per-stage
// synchronization (paper §4.3 puts a barrier at the end of every tree
// stage, so barrier cost multiplies into every collective). Compares the
// modeled dissemination / central / tournament barriers, standalone and
// under a broadcast-heavy loop.
//
//   bench_ablation_barrier [--pes 2,4,8,16] [--reps 100] [--json PATH]

#include <cstdio>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/table.hpp"
#include "collectives/collectives.hpp"
#include "common/cli.hpp"

namespace {

struct Sample {
  std::uint64_t barrier_cycles = 0;
  std::uint64_t bcast_cycles = 0;
};

Sample run_with(const xbgas::CliArgs& args, int n,
                xbgas::BarrierAlgorithm algorithm, int reps) {
  xbgas::MachineConfig config = xbgas::machine_config_from_cli(args, n);
  config.net.barrier_algorithm = algorithm;
  xbgas::Machine machine(config);
  Sample sample;
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    auto* buf = static_cast<long*>(xbgas::xbrtime_malloc(64 * sizeof(long)));
    xbgas::xbrtime_barrier();

    const std::uint64_t t0 = pe.clock().cycles();
    for (int r = 0; r < reps; ++r) xbgas::xbrtime_barrier();
    const std::uint64_t t1 = pe.clock().cycles();

    for (int r = 0; r < reps; ++r) {
      xbgas::broadcast(buf, buf, 64, 1, 0);
    }
    const std::uint64_t t2 = pe.clock().cycles();

    if (pe.rank() == 0) {
      sample.barrier_cycles = (t1 - t0) / static_cast<std::uint64_t>(reps);
      sample.bcast_cycles = (t2 - t1) / static_cast<std::uint64_t>(reps);
    }
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(buf);
    xbgas::xbrtime_close();
  });
  xbgas::emit_observability(machine, args);
  return sample;
}

}  // namespace

constexpr std::string_view kFlags[] = {"json", "pes", "reps"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const std::vector<int> pes = args.get_int_list("pes", {2, 4, 8, 16});
  const int reps = static_cast<int>(args.get_int("reps", 100));

  std::printf("== Ablation A4: barrier algorithm cost (modeled cycles) ==\n");
  xbgas::AsciiTable table({"PEs", "algorithm", "cycles/barrier",
                           "cycles/64-elem bcast"});
  const std::pair<xbgas::BarrierAlgorithm, const char*> algos[] = {
      {xbgas::BarrierAlgorithm::kDissemination, "dissemination"},
      {xbgas::BarrierAlgorithm::kCentral, "central"},
      {xbgas::BarrierAlgorithm::kTournament, "tournament"},
  };
  for (const int n : pes) {
    for (const auto& [algo, name] : algos) {
      const Sample s = run_with(args, n, algo, reps);
      table.add_row(
          {xbgas::AsciiTable::cell(static_cast<long long>(n)), name,
           xbgas::AsciiTable::cell(
               static_cast<unsigned long long>(s.barrier_cycles)),
           xbgas::AsciiTable::cell(
               static_cast<unsigned long long>(s.bcast_cycles))});
    }
  }
  table.print();
  std::printf("(central serializes at the root and falls behind as PE count "
              "grows; every tree stage pays this cost once)\n");
  if (args.has("json")) {
    xbgas::write_tables_json(args.get("json", ""), "ablation_barrier",
                             {{"cycles", &table}});
  }
  return 0;
}
