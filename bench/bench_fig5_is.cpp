// Figure 5 reproduction: NAS Integer Sort performance (total and per-PE
// MOPS) at 1/2/4/8 PEs (§5.2-§5.3).
//
//   bench_fig5_is [--stats] [--pes 1,2,4,8] [--class S|W|A|B] [--iterations 10]
//                 [--json PATH]
//
// The paper runs class B; the default here is class W so the sweep finishes
// in seconds — pass --class B for the paper's size. Expected shape: total
// MOPS ~linear to 4 PEs with consistent per-PE MOPS, then a ~25% per-PE
// drop at 8 PEs.

#include <cstdio>
#include <string>

#include "benchlib/nasis.hpp"
#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/stats_report.hpp"
#include "benchlib/table.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"

namespace {

xbgas::IsClass class_from_name(const std::string& name) {
  if (name == "S") return xbgas::IsClass::kS;
  if (name == "W") return xbgas::IsClass::kW;
  if (name == "A") return xbgas::IsClass::kA;
  if (name == "B") return xbgas::IsClass::kB;
  throw xbgas::Error("unknown IS class: " + name + " (use S, W, A or B)");
}

}  // namespace

constexpr std::string_view kFlags[] = {
    "class", "iterations", "json", "pes", "stats",
};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});

  xbgas::IsConfig config;
  config.cls = class_from_name(args.get("class", "W"));
  config.iterations = static_cast<int>(args.get_int("iterations", 10));
  const bool stats = args.get_bool("stats", false);

  const auto params = xbgas::is_class_params(config.cls);
  std::printf("== Figure 5: NAS IS class %s (%llu keys, max key %d, %d "
              "iterations) ==\n",
              xbgas::is_class_name(config.cls),
              static_cast<unsigned long long>(params.total_keys),
              params.max_key, config.iterations);

  xbgas::AsciiTable table(
      {"PEs", "Total MOPS", "MOPS per PE", "sim ms", "verified"});
  for (const int n : xbgas::pe_counts_from_cli(args)) {
    xbgas::MachineConfig mc = xbgas::machine_config_from_cli(args, n);
    mc.layout.shared_bytes = std::max(
        mc.layout.shared_bytes, xbgas::is_shared_bytes_needed(config.cls, n));
    xbgas::Machine machine(mc);
    const xbgas::IsResult r = xbgas::run_is(machine, config);
    if (stats) {
      std::printf("-- machine statistics, %d PE(s) --\n", n);
      xbgas::print_machine_stats(machine);
    }
    xbgas::emit_observability(machine, args);
    table.add_row({xbgas::AsciiTable::cell(static_cast<long long>(r.n_pes)),
                   xbgas::AsciiTable::cell(r.mops_total),
                   xbgas::AsciiTable::cell(r.mops_per_pe),
                   xbgas::AsciiTable::cell(r.seconds * 1e3),
                   r.verified ? "yes" : "NO"});
  }
  table.print();
  std::printf("(series: \"Total\" and \"Per PE\" correspond to the two bars "
              "of paper Figure 5)\n");
  if (args.has("json")) {
    xbgas::write_tables_json(
        args.get("json", ""), "fig5_is",
        {{std::string("class_") + xbgas::is_class_name(config.cls), &table}});
  }
  return 0;
}
