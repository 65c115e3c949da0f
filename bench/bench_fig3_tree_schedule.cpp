// Figure 3 reproduction: the binomial tree with recursive halving. Prints
// the stage-by-stage communication schedule (broadcast direction) and the
// reverse (reduce direction), as virtual-rank edges.
//
//   bench_fig3_tree_schedule [--pes 8] [--json PATH]

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "benchlib/table.hpp"
#include "collectives/schedule.hpp"
#include "common/cli.hpp"
#include "common/strfmt.hpp"

namespace {

/// One row per stage: the stage's edges as "from->to" (broadcast) or
/// "to<-from" (reduce), space-separated, in schedule order.
xbgas::AsciiTable stage_table(const std::vector<xbgas::TreeEdge>& edges,
                              bool reduce) {
  std::map<int, std::string> stages;
  for (const auto& e : edges) {
    std::string& row = stages[e.stage];
    if (!row.empty()) row += " ";
    row += reduce ? xbgas::strfmt("%d<-%d", e.to_vrank, e.from_vrank)
                  : xbgas::strfmt("%d->%d", e.from_vrank, e.to_vrank);
  }
  xbgas::AsciiTable table({"stage", "edges"});
  for (const auto& [stage, row] : stages) {
    table.add_row(
        {xbgas::AsciiTable::cell(static_cast<long long>(stage)), row});
  }
  return table;
}

}  // namespace

constexpr std::string_view kFlags[] = {"json", "pes"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {kFlags});
  const int n = static_cast<int>(args.get_int("pes", 8));

  std::printf("== Figure 3: binomial tree with recursive halving (%d PEs) "
              "==\n\n", n);
  std::printf("Broadcast/scatter direction (top-down, put-based):");
  int stage = -1;
  for (const auto& e : xbgas::broadcast_schedule(n)) {
    if (e.stage != stage) {
      stage = e.stage;
      std::printf("\n  stage %d:", stage);
    }
    std::printf("  %d->%d", e.from_vrank, e.to_vrank);
  }
  std::printf("\n\nReduce/gather direction (bottom-up, get-based):");
  stage = -1;
  for (const auto& e : xbgas::reduce_schedule(n)) {
    if (e.stage != stage) {
      stage = e.stage;
      std::printf("\n  stage %d:", stage);
    }
    std::printf("  %d<-%d", e.to_vrank, e.from_vrank);
  }
  std::printf("\n\nStages: %d (= ceil(log2 %d)); edges: %d\n",
              xbgas::schedule_stages(n), n, n - 1);
  if (args.has("json")) {
    const xbgas::AsciiTable bcast =
        stage_table(xbgas::broadcast_schedule(n), /*reduce=*/false);
    const xbgas::AsciiTable reduce =
        stage_table(xbgas::reduce_schedule(n), /*reduce=*/true);
    xbgas::write_tables_json(args.get("json", ""), "fig3_tree_schedule",
                             {{"broadcast", &bcast}, {"reduce", &reduce}});
  }
  return 0;
}
