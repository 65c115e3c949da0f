// Ablation A3: the runtime's loop-unrolling optimization (paper §3.3: the
// underlying assembly unrolls the remote load/store loop once nelems
// exceeds a threshold). Lowers the same strided put to actual RV64I+xBGAS
// instruction sequences — rolled and x4-unrolled — and executes both on the
// interpreter, reporting instruction and cycle counts.
//
//   bench_ablation_unroll [--elems 4,8,16,64,256,1024] [--json PATH]

#include <cstdio>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/table.hpp"
#include "common/cli.hpp"
#include "common/strfmt.hpp"
#include "xbrtime/runtime.hpp"
#include "xbrtime/validation.hpp"

constexpr std::string_view kFlags[] = {"elems", "json"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const std::vector<int> sizes =
      args.get_int_list("elems", {4, 8, 16, 64, 256, 1024});

  std::printf("== Ablation A3: remote-store loop unrolling at the ISA level "
              "(8-byte elements, stride 1) ==\n");

  xbgas::AsciiTable table({"elems", "insts rolled", "insts unrolled",
                           "cycles rolled", "cycles unrolled", "cycle save"});

  xbgas::Machine machine(xbgas::machine_config_from_cli(args, 2));
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    if (pe.rank() == 0) {
      for (const int size : sizes) {
        const auto nelems = static_cast<std::size_t>(size);
        auto* dst = static_cast<std::uint64_t*>(
            xbgas::xbrtime_stage_alloc(nelems * 8));
        auto* src = static_cast<std::uint64_t*>(
            xbgas::xbrtime_stage_alloc(nelems * 8));
        const auto rolled =
            xbgas::isa_put(pe, dst, src, 8, nelems, 1, 1, /*unroll=*/false);
        const auto unrolled =
            xbgas::isa_put(pe, dst, src, 8, nelems, 1, 1, /*unroll=*/true);
        table.add_row(
            {xbgas::AsciiTable::cell(static_cast<long long>(size)),
             xbgas::AsciiTable::cell(
                 static_cast<unsigned long long>(rolled.instructions)),
             xbgas::AsciiTable::cell(
                 static_cast<unsigned long long>(unrolled.instructions)),
             xbgas::AsciiTable::cell(
                 static_cast<unsigned long long>(rolled.cycles)),
             xbgas::AsciiTable::cell(
                 static_cast<unsigned long long>(unrolled.cycles)),
             xbgas::strfmt(
                 "%.1f%%",
                 100.0 * (1.0 - static_cast<double>(unrolled.cycles) /
                                    static_cast<double>(rolled.cycles)))});
        xbgas::xbrtime_stage_free(src);
        xbgas::xbrtime_stage_free(dst);
      }
    }
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_close();
  });

  table.print();
  std::printf("(runtime fast-path model applies the same idea: per-element "
              "issue cost drops past the unroll threshold of %zu elems)\n",
              xbgas::NetCostParams{}.unroll_threshold);
  xbgas::emit_observability(machine, args);
  if (args.has("json")) {
    xbgas::write_tables_json(args.get("json", ""), "ablation_unroll",
                             {{"cycles", &table}});
  }
  return 0;
}
