// Policy crossover curve: measured tree vs ring reduce_all across message
// sizes, next to the CollectivePolicy model's predictions — the experiment
// that validates `--coll-algo auto` (src/collectives/policy.hpp). For each
// (n_pes, nelems) point the bench runs reduce_all three times — forced tree,
// forced ring, and auto — and reports which family auto picked (read back
// from the coll.* dispatch counters), the measured cycles, and the model's
// predicted costs and crossover element count.
//
// Defaults to the switched-fabric profile (every link concurrent, as in
// ablation A6's "net" fabric), where the ring's pipelining can actually win;
// pass --bus to keep the shared-bus default and watch the tree win at every
// size. docs/COLLECTIVES.md and EXPERIMENTS.md describe the protocol;
// BENCH_policy_crossover.json in the repo root is a committed run.
//
//   bench_policy_crossover [--pes 4,8,12] [--sizes 16,...,65536]
//                          [--reps 3] [--bus] [--json PATH]

#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/table.hpp"
#include "collectives/composed.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strfmt.hpp"

namespace {

xbgas::MachineConfig bench_config(const xbgas::CliArgs& args, int n,
                                  const std::string& algo, bool bus) {
  xbgas::MachineConfig config = xbgas::machine_config_from_cli(args, n);
  if (!bus) {  // switched fabric: links run concurrently (A6 "net" profile)
    config.net.fabric_message_cycles = 0;
    config.net.fabric_bytes_per_cycle = 1e12;
  }
  config.coll_algo = algo;
  return config;
}

struct MeasuredPoint {
  std::uint64_t cycles = 0;
  std::string resolved;  ///< family the dispatcher actually ran
};

MeasuredPoint measure_reduce_all(const xbgas::CliArgs& args, int n,
                                 std::size_t nelems, const std::string& algo,
                                 bool bus, int reps) {
  xbgas::Machine machine(bench_config(args, n, algo, bus));
  xbgas::reset_coll_dispatch_counts();
  MeasuredPoint out;
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    auto* dest =
        static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
    auto* src =
        static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
    for (std::size_t i = 0; i < nelems; ++i) {
      src[i] = pe.rank() + static_cast<long>(i % 5);
    }
    xbgas::xbrtime_barrier();
    xbgas::reduce_all<xbgas::OpSum>(dest, src, nelems, 1);  // warm pass
    xbgas::xbrtime_barrier();
    std::uint64_t total = 0;
    for (int r = 0; r < reps; ++r) {
      const std::uint64_t t0 = pe.clock().cycles();
      xbgas::reduce_all<xbgas::OpSum>(dest, src, nelems, 1);
      xbgas::xbrtime_barrier();
      total += pe.clock().cycles() - t0;
    }
    if (pe.rank() == 0) out.cycles = total / static_cast<std::uint64_t>(reps);
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(src);
    xbgas::xbrtime_free(dest);
    xbgas::xbrtime_close();
  });
  // Sweep-bench observability contract (docs/OBSERVABILITY.md): emit once
  // per configuration; the trace file on disk belongs to the last one.
  xbgas::emit_observability(machine, args);
  // Every dispatch of this (size, n) point resolves identically, so the
  // busiest allreduce row of the counters is the family that ran.
  const xbgas::CollDispatchCounts counts = xbgas::coll_dispatch_counts();
  const auto kind = static_cast<int>(xbgas::CollKind::kAllreduce);
  int best = static_cast<int>(xbgas::CollAlgo::kTree);
  for (int a = 1; a < xbgas::kCollAlgoCount; ++a) {
    if (counts.by_kind_algo[kind][a] >
        counts.by_kind_algo[kind][best]) {
      best = a;
    }
  }
  out.resolved = xbgas::coll_algo_name(static_cast<xbgas::CollAlgo>(best));
  return out;
}

}  // namespace

constexpr std::string_view kFlags[] = {"bus", "json", "pes", "reps", "sizes"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const std::vector<int> pes = args.get_int_list("pes", {4, 8, 12});
  const std::vector<int> sizes = args.get_int_list(
      "sizes", {16, 64, 256, 1024, 4096, 16384, 65536});
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const bool bus = args.get_bool("bus", false);
  const std::string json_path = args.get("json", "");

  std::printf("== Policy crossover: reduce_all tree vs ring vs --coll-algo "
              "auto (%s fabric, modeled cycles) ==\n",
              bus ? "shared-bus" : "switched");

  std::string json = "{\n  \"bench\": \"policy_crossover\",\n"
                     "  \"collective\": \"reduce_all\",\n"
                     "  \"elem_bytes\": 8,\n";
  json += xbgas::strfmt("  \"fabric\": \"%s\",\n  \"reps\": %d,\n",
                        bus ? "bus" : "switched", reps);
  json += "  \"pes\": [\n";

  for (std::size_t pi = 0; pi < pes.size(); ++pi) {
    const int n = pes[pi];
    const xbgas::CollectivePolicy policy(
        bench_config(args, n, "auto", bus));
    const std::size_t predicted = policy.crossover_nelems(
        xbgas::CollKind::kAllreduce, n, sizeof(long));
    std::printf("\n-- %d PEs (model crossover: %s elems) --\n", n,
                predicted == SIZE_MAX
                    ? "never"
                    : xbgas::strfmt("%zu", predicted).c_str());

    json += xbgas::strfmt("    {\"n_pes\": %d, ", n);
    json += predicted == SIZE_MAX
                ? std::string("\"model_crossover_nelems\": null, ")
                : xbgas::strfmt("\"model_crossover_nelems\": %zu, ",
                                predicted);
    json += "\"points\": [\n";

    xbgas::AsciiTable table({"elems", "tree", "ring", "auto", "auto picked",
                             "model tree", "model ring"});
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      const auto nelems = static_cast<std::size_t>(sizes[si]);
      const MeasuredPoint tree =
          measure_reduce_all(args, n, nelems, "tree", bus, reps);
      const MeasuredPoint ring =
          measure_reduce_all(args, n, nelems, "ring", bus, reps);
      const MeasuredPoint pick =
          measure_reduce_all(args, n, nelems, "auto", bus, reps);
      const double m_tree = policy.tree_cost(xbgas::CollKind::kAllreduce, n,
                                             nelems, sizeof(long));
      const double m_ring = policy.ring_cost(xbgas::CollKind::kAllreduce, n,
                                             nelems, sizeof(long));
      table.add_row(
          {xbgas::AsciiTable::cell(static_cast<long long>(sizes[si])),
           xbgas::AsciiTable::cell(
               static_cast<unsigned long long>(tree.cycles)),
           xbgas::AsciiTable::cell(
               static_cast<unsigned long long>(ring.cycles)),
           xbgas::AsciiTable::cell(
               static_cast<unsigned long long>(pick.cycles)),
           pick.resolved, xbgas::strfmt("%.0f", m_tree),
           xbgas::strfmt("%.0f", m_ring)});
      json += xbgas::strfmt(
          "      {\"nelems\": %zu, \"tree_cycles\": %llu, "
          "\"ring_cycles\": %llu, \"auto_cycles\": %llu, "
          "\"auto_algo\": \"%s\", \"model_tree\": %.1f, "
          "\"model_ring\": %.1f}%s\n",
          nelems, static_cast<unsigned long long>(tree.cycles),
          static_cast<unsigned long long>(ring.cycles),
          static_cast<unsigned long long>(pick.cycles),
          pick.resolved.c_str(), m_tree, m_ring,
          si + 1 < sizes.size() ? "," : "");
    }
    table.print();
    json += "    ]}";
    json += pi + 1 < pes.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      throw xbgas::Error("cannot write " + json_path);
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  std::printf("(auto should track min(tree, ring); the pick column flips at "
              "the measured crossover)\n");
  return 0;
}
