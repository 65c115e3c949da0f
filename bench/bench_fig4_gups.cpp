// Figure 4 reproduction: GUPs performance (total and per-PE MOPS) at
// 1/2/4/8 PEs, with verification enabled as in the paper (§5.2-§5.3).
//
//   bench_fig4_gups [--stats] [--pes 1,2,4,8] [--log2-table 21] [--updates N (0 = 4 x table/PEs)]
//                   [--no-verify] [--topology flat] [--json PATH] ...
//
// Expected shape (paper Figure 4): total MOPS scales ~linearly to 4 PEs;
// per-PE MOPS peaks at 2 PEs and dips at 8 PEs as the shared fabric
// saturates.

#include <cstdio>

#include "benchlib/gups.hpp"
#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/stats_report.hpp"
#include "benchlib/table.hpp"
#include "common/cli.hpp"
#include "common/strfmt.hpp"

constexpr std::string_view kFlags[] = {
    "json", "log2-table", "no-verify", "pes", "stats", "updates",
};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});

  xbgas::GupsConfig config;
  config.log2_table_entries =
      static_cast<unsigned>(args.get_int("log2-table", 21));
  config.updates_per_pe =
      static_cast<std::uint64_t>(args.get_int("updates", 0));
  config.verify = !args.has("no-verify");
  const bool stats = args.get_bool("stats", false);

  if (config.updates_per_pe == 0) {
    std::printf("== Figure 4: GUPs performance (table 2^%u entries, "
                "4x-coverage updates, verify=%s) ==\n",
                config.log2_table_entries, config.verify ? "on" : "off");
  } else {
    std::printf("== Figure 4: GUPs performance (table 2^%u entries, %llu "
                "updates/PE, verify=%s) ==\n",
                config.log2_table_entries,
                static_cast<unsigned long long>(config.updates_per_pe),
                config.verify ? "on" : "off");
  }

  xbgas::AsciiTable table({"PEs", "Total MOPS", "MOPS per PE", "GUPS",
                           "sim ms", "errors"});
  for (const int n : xbgas::pe_counts_from_cli(args)) {
    xbgas::Machine machine(xbgas::machine_config_from_cli(args, n));
    const xbgas::GupsResult r = xbgas::run_gups(machine, config);
    if (stats) {
      std::printf("-- machine statistics, %d PE(s) --\n", n);
      xbgas::print_machine_stats(machine);
    }
    xbgas::emit_observability(machine, args);
    table.add_row({xbgas::AsciiTable::cell(static_cast<long long>(r.n_pes)),
                   xbgas::AsciiTable::cell(r.mops_total),
                   xbgas::AsciiTable::cell(r.mops_per_pe),
                   xbgas::strfmt("%.6f", r.gups),
                   xbgas::AsciiTable::cell(r.seconds * 1e3),
                   xbgas::AsciiTable::cell(
                       static_cast<unsigned long long>(r.errors))});
  }
  table.print();
  std::printf("(series: \"Total\" and \"Per PE\" correspond to the two bars "
              "of paper Figure 4)\n");
  if (args.has("json")) {
    xbgas::write_tables_json(args.get("json", ""), "fig4_gups",
                             {{"gups", &table}});
  }
  return 0;
}
