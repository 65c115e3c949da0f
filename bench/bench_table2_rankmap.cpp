// Table 2 reproduction: logical-to-virtual rank mapping. Defaults to the
// paper's worked example (7 PEs, root 4); --pes and --root print any other
// configuration.
//
//   bench_table2_rankmap [--pes 7] [--root 4] [--json PATH]

#include <cstdio>

#include "benchlib/table.hpp"
#include "collectives/vrank.hpp"
#include "common/cli.hpp"

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv);
  const int n = static_cast<int>(args.get_int("pes", 7));
  const int root = static_cast<int>(args.get_int("root", 4));

  std::printf("== Table 2: logical to virtual rank mapping (%d PEs, root %d) "
              "==\n",
              n, root);
  xbgas::AsciiTable table({"log_rank", "vir_rank"});
  for (int lr = 0; lr < n; ++lr) {
    table.add_row(
        {xbgas::AsciiTable::cell(static_cast<long long>(lr)),
         xbgas::AsciiTable::cell(
             static_cast<long long>(xbgas::virtual_rank(lr, root, n)))});
  }
  table.print();
  if (args.has("json")) {
    xbgas::write_tables_json(args.get("json", ""), "table2_rankmap",
                             {{"rankmap", &table}});
  }
  return 0;
}
