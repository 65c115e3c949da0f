// Table 1 reproduction: the xBGAS matched type names & types — the 24
// TYPENAME <-> TYPE pairs for which the runtime generates explicit typed
// entry points (put/get/broadcast/reduce_*/scatter/gather).
//
//   bench_table1_types [--json PATH]

#include <cstdio>

#include "benchlib/table.hpp"
#include "common/cli.hpp"
#include "xbrtime/types.hpp"

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv);
  std::printf("== Table 1: xBGAS matched type names & types ==\n");
  xbgas::AsciiTable table({"TYPENAME", "TYPE"});
  for (int i = 0; i < xbgas::kNumTypedNames; ++i) {
    table.add_row({xbgas::typed_names()[i], xbgas::typed_ctypes()[i]});
  }
  table.print();
  if (args.has("json")) {
    xbgas::write_tables_json(args.get("json", ""), "table1_types",
                             {{"types", &table}});
  }
  std::printf("Typed entry points generated per TYPENAME: put, get, put_nb, "
              "get_nb, broadcast, reduce_{sum,prod,min,max}, scatter, gather"
              " (+ reduce_{and,or,xor} for the 21 integer types)\n");
  return 0;
}
