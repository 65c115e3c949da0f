// perfbench — the repository's end-to-end benchmark (perfbench/README.md).
//
//   perfbench --workload {sync_scale,coll_mix,kv_zipf} --seed N
//             --seconds S --trace {0,1} [--workers W]
//
// Generates the workload's inputs from the seed, checks every output, and
// prints the metrics as a table followed by one JSON line (the last line of
// stdout). --trace 0 reports the end-to-end metrics from untraced runs;
// --trace 1 reports the per-layer metrics from a traced run. Exits 1 on any
// verification or cross-check failure, 2 on bad arguments or a build whose
// host timings must not be reported.

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {

xbgas::MachineConfig base_config(int n_pes, int workers) {
  xbgas::MachineConfig c;
  c.n_pes = n_pes;
  c.layout.shared_bytes = std::size_t{1} << 20;
  c.layout.private_bytes = std::size_t{64} << 10;
  c.sched.mode = "fibers";
  c.sched.workers = workers;
  return c;
}

}  // namespace perfbench

namespace {

bool parse(int argc, char** argv, perfbench::Options& opts) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opts.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        opts.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(val);
      } else if (key == "--trace") {
        opts.trace = val == "1";
      } else if (key == "--workers") {
        opts.workers = std::stoi(val);
      } else {
        std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", key.c_str(),
                   val.c_str());
      return false;
    }
  }
  if (argc % 2 == 0 || !have_workload || opts.seconds <= 0 ||
      opts.workers < 1) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {sync_scale,coll_mix,kv_zipf} "
                 "--seed N --seconds S --trace {0,1} [--workers W]\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!parse(argc, argv, opts)) return 2;

  perfbench::Report report;
  bool ok = false;
  try {
    if (opts.workload == "sync_scale") {
      ok = perfbench::run_sync_scale(opts, report);
    } else if (opts.workload == "coll_mix") {
      ok = perfbench::run_coll_mix(opts, report);
    } else if (opts.workload == "kv_zipf") {
      ok = perfbench::run_kv_zipf(opts, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   opts.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::printf("perfbench: %s failed: %s\n", opts.workload.c_str(),
                e.what());
    return 1;
  }
  if (!ok) return 2;

  report.print_table(opts.workload + (opts.trace ? " (traced, per layer)"
                                                 : " (end to end)"));
  report.print_json();
  return report.correct() ? 0 : 1;
}
