// Scaling curves for the N:M fiber machine (docs/SCALING.md): barrier and
// allreduce latency at 16..1024 PEs, in modeled cycles (what the simulated
// machine charges — should grow with log2 n for the tree/dissemination
// algorithms) and in host microseconds per op (what the scheduler costs —
// should stay laptop-friendly even at 1024 fibers). BENCH_scaling.json in
// the repo root is a committed run; EXPERIMENTS.md A9 is the protocol.
//
//   bench_scaling [--pes 16,64,256,1024] [--barrier-reps 64]
//                 [--allreduce-reps 8] [--nelems 256] [--json PATH]
//                 [--sched-workers N]
//
// Segments default to slim (1 MiB shared / 64 KiB private per PE) so the
// 1024-PE point fits in ~1 GiB; --shared-mb/--private-mb override.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/options.hpp"
#include "benchlib/table.hpp"
#include "collectives/composed.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "trace/collect.hpp"

namespace {

struct ScalePoint {
  int n_pes = 0;
  std::uint64_t barrier_cycles = 0;    ///< modeled cycles per barrier
  std::uint64_t allreduce_cycles = 0;  ///< modeled cycles per allreduce
  double barrier_host_us = 0.0;        ///< host µs per barrier (all PEs)
  double allreduce_host_us = 0.0;      ///< host µs per allreduce
  double region_host_ms = 0.0;         ///< whole region incl. fiber spawn
  std::uint64_t workers = 0;
  std::uint64_t switches = 0;
};

xbgas::MachineConfig scale_config(const xbgas::CliArgs& args, int n) {
  xbgas::MachineConfig config = xbgas::machine_config_from_cli(args, n);
  if (!args.has("shared-mb")) config.layout.shared_bytes = 1 << 20;
  if (!args.has("private-mb")) config.layout.private_bytes = 64 * 1024;
  return config;
}

ScalePoint measure(const xbgas::CliArgs& args, int n, int barrier_reps,
                   int allreduce_reps, std::size_t nelems) {
  using clk = std::chrono::steady_clock;
  xbgas::Machine machine(scale_config(args, n));
  ScalePoint out;
  out.n_pes = n;

  // Rank 0's fiber brackets each timed phase; one fiber timing the phase is
  // enough because the barrier at each end synchronizes everyone.
  clk::time_point t_bar0, t_bar1, t_red0, t_red1;
  const auto t_region0 = clk::now();
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    auto* dest =
        static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
    auto* src =
        static_cast<long*>(xbgas::xbrtime_malloc(nelems * sizeof(long)));
    for (std::size_t i = 0; i < nelems; ++i) {
      src[i] = pe.rank() + static_cast<long>(i % 7);
    }
    xbgas::xbrtime_barrier();  // warm: everyone allocated

    const std::uint64_t c_bar0 = pe.clock().cycles();
    if (pe.rank() == 0) t_bar0 = clk::now();
    for (int r = 0; r < barrier_reps; ++r) xbgas::xbrtime_barrier();
    if (pe.rank() == 0) {
      t_bar1 = clk::now();
      out.barrier_cycles = (pe.clock().cycles() - c_bar0) /
                           static_cast<std::uint64_t>(barrier_reps);
    }

    xbgas::reduce_all<xbgas::OpSum>(dest, src, nelems, 1);  // warm pass
    xbgas::xbrtime_barrier();
    const std::uint64_t c_red0 = pe.clock().cycles();
    if (pe.rank() == 0) t_red0 = clk::now();
    for (int r = 0; r < allreduce_reps; ++r) {
      xbgas::reduce_all<xbgas::OpSum>(dest, src, nelems, 1);
      xbgas::xbrtime_barrier();
    }
    if (pe.rank() == 0) {
      t_red1 = clk::now();
      out.allreduce_cycles = (pe.clock().cycles() - c_red0) /
                             static_cast<std::uint64_t>(allreduce_reps);
    }

    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(src);
    xbgas::xbrtime_free(dest);
    xbgas::xbrtime_close();
  });
  const auto t_region1 = clk::now();

  const auto us = [](clk::time_point a, clk::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  out.barrier_host_us = us(t_bar0, t_bar1) / barrier_reps;
  out.allreduce_host_us = us(t_red0, t_red1) / allreduce_reps;
  out.region_host_ms = us(t_region0, t_region1) / 1000.0;
  const xbgas::SchedStats ss = machine.sched_stats();
  out.workers = ss.workers;
  out.switches = ss.switches;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv);
  const std::vector<int> pes = args.get_int_list("pes", {16, 64, 256, 1024});
  const int barrier_reps = static_cast<int>(args.get_int("barrier-reps", 64));
  const int allreduce_reps =
      static_cast<int>(args.get_int("allreduce-reps", 8));
  const auto nelems = static_cast<std::size_t>(args.get_int("nelems", 256));
  const std::string json_path = args.get("json", "");

  std::printf("== Scaling: barrier + allreduce(%zu longs) latency vs n_pes "
              "(N:M fiber machine, docs/SCALING.md) ==\n", nelems);

  std::string json = "{\n  \"bench\": \"scaling\",\n";
  json += xbgas::strfmt(
      "  \"nelems\": %zu,\n  \"elem_bytes\": 8,\n"
      "  \"barrier_reps\": %d,\n  \"allreduce_reps\": %d,\n  \"points\": [\n",
      nelems, barrier_reps, allreduce_reps);

  xbgas::AsciiTable table({"pes", "barrier cyc", "allreduce cyc",
                           "barrier us", "allreduce us", "region ms",
                           "workers", "switches"});
  for (std::size_t pi = 0; pi < pes.size(); ++pi) {
    const ScalePoint p =
        measure(args, pes[pi], barrier_reps, allreduce_reps, nelems);
    table.add_row(
        {xbgas::AsciiTable::cell(static_cast<long long>(p.n_pes)),
         xbgas::AsciiTable::cell(
             static_cast<unsigned long long>(p.barrier_cycles)),
         xbgas::AsciiTable::cell(
             static_cast<unsigned long long>(p.allreduce_cycles)),
         xbgas::strfmt("%.1f", p.barrier_host_us),
         xbgas::strfmt("%.1f", p.allreduce_host_us),
         xbgas::strfmt("%.1f", p.region_host_ms),
         xbgas::AsciiTable::cell(static_cast<unsigned long long>(p.workers)),
         xbgas::AsciiTable::cell(
             static_cast<unsigned long long>(p.switches))});
    json += xbgas::strfmt(
        "    {\"n_pes\": %d, \"barrier_cycles\": %llu, "
        "\"allreduce_cycles\": %llu, \"barrier_host_us\": %.2f, "
        "\"allreduce_host_us\": %.2f, \"region_host_ms\": %.2f, "
        "\"workers\": %llu, \"switches\": %llu}%s\n",
        p.n_pes, static_cast<unsigned long long>(p.barrier_cycles),
        static_cast<unsigned long long>(p.allreduce_cycles),
        p.barrier_host_us, p.allreduce_host_us, p.region_host_ms,
        static_cast<unsigned long long>(p.workers),
        static_cast<unsigned long long>(p.switches),
        pi + 1 < pes.size() ? "," : "");
  }
  table.print();
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
  std::printf("(modeled cycles should grow ~log2(pes): dissemination "
              "barrier and tree allreduce are both log-depth)\n");
  return 0;
}
