#pragma once

// The three seeded workloads (perfbench/README.md says why each exists).
// Each entry point prints the run environment, runs the reduced-size
// worker-count determinism check, and then either the untraced end-to-end
// measurement (trace off) or the traced per-layer run (trace on), filling
// `report`. Returns false when host metrics must be refused.

#include "harness.hpp"

namespace perfbench {

bool run_sync_scale(const Options& opts, Report& report);
bool run_coll_mix(const Options& opts, Report& report);
bool run_kv_zipf(const Options& opts, Report& report);

/// Slim per-PE segments shared by all workloads (the layout of
/// BENCH_scaling.json and BENCH_osu.json): 1 MiB shared, 64 KiB private.
xbgas::MachineConfig base_config(int n_pes, int workers);

}  // namespace perfbench
