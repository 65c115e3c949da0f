// sync_scale: 1024 PEs on a flat fabric run an iterative-solver sync
// pattern. Each step is an 8-byte allreduce of a per-PE residual plus one
// barrier. Almost all of the cost is the machine layer: fiber scheduling,
// the clock-sync barrier, and fiber stacks at set-up.

#include <cstdio>

#include "collectives/composed.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kPes = 1024;
constexpr int kReducedPes = 64;
constexpr std::uint64_t kStepsPerPass = 4;
constexpr int kSetups = 3;

class SyncScale {
 public:
  SyncScale(std::uint64_t seed, int n_pes)
      : seed_(seed), expected_(kStepsPerPass, 0) {
    for (std::uint64_t j = 0; j < kStepsPerPass; ++j) {
      for (int pe = 0; pe < n_pes; ++pe) expected_[j] += residual(pe, j);
    }
  }

  std::uint64_t ops_per_pass() const { return kStepsPerPass; }
  std::uint64_t repeat_steps() const { return 1; }

  /// Seeded residual of `pe` at step slot `j` (20 bits: sums stay exact).
  long residual(int pe, std::uint64_t j) const {
    return static_cast<long>(
        mix64(seed_ ^ mix64((static_cast<std::uint64_t>(pe) << 20) | j)) &
        0xfffff);
  }

  struct Pe {
    Pe(SyncScale& w, xbgas::PeContext& pe_ctx, RegionCtx& ctx) : pe(pe_ctx) {
      const bool root = pe.rank() == 0;
      Clock::time_point t0 = Clock::now();
      {
        Scope s(ctx.spans, "xbrtime.init", -1, true);
        xbgas::xbrtime_init();
      }
      if (root) ctx.init_s = seconds_between(t0, Clock::now());
      t0 = Clock::now();
      {
        Scope s(ctx.spans, "xbrtime.malloc", -1, true);
        src = static_cast<long*>(xbgas::xbrtime_malloc(kStepsPerPass * 8));
        dest = static_cast<long*>(xbgas::xbrtime_malloc(kStepsPerPass * 8));
      }
      if (root) ctx.malloc_s = seconds_between(t0, Clock::now());
      for (std::uint64_t j = 0; j < kStepsPerPass; ++j) {
        src[j] = w.residual(pe.rank(), j);
      }
    }
    xbgas::PeContext& pe;
    long* src = nullptr;
    long* dest = nullptr;
  };

  void warm(Pe& st, RegionCtx& ctx) {
    Scope s(ctx.spans, "bench.warm", -1, true);
    xbgas::reduce_all<xbgas::OpSum>(st.dest, st.src, 1, 1);
  }

  void step(Pe& st, std::uint64_t i, RegionCtx& ctx) {
    const int rank = st.pe.rank();
    const std::uint64_t pass = i / kStepsPerPass;
    const std::uint64_t j = i % kStepsPerPass;
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t c0 = st.pe.clock().cycles();
    std::uint64_t c_reduce = 0;
    double host_reduce = 0.0;
    {
      Scope op(ctx.spans, "bench.step", static_cast<std::int64_t>(i), true);
      {
        Scope s(ctx.spans, "coll.allreduce", static_cast<std::int64_t>(i),
                true);
        xbgas::reduce_all<xbgas::OpSum>(st.dest + j, st.src + j, 1, 1);
      }
      c_reduce = st.pe.clock().cycles() - c0;
      host_reduce = seconds_between(t0, Clock::now());
      ctx.pace(rank, i + 1);
      Scope s(ctx.spans, "machine.barrier", static_cast<std::int64_t>(i),
              true);
      xbgas::xbrtime_barrier();
    }
    ctx.sample(rank, i, st.pe.clock().cycles() - c0);
    if (rank == 0) {
      ctx.window(pass, seconds_between(t0, Clock::now()), 1);
      if (pass == 0) allreduce_cycles_.push_back(c_reduce);
      if (pass % 2 == 0) allreduce_host_us_.push_back(host_reduce * 1e6);
    }
    if (st.dest[j] != expected_[j]) {
      ctx.fail_op(i, "sync_scale step " + std::to_string(i) + ": PE " +
                         std::to_string(rank) + " got allreduce " +
                         std::to_string(st.dest[j]) + ", expected " +
                         std::to_string(expected_[j]));
    }
  }

  void finish(Pe& st, RegionCtx&) {
    xbgas::xbrtime_free(st.dest);
    xbgas::xbrtime_free(st.src);
    xbgas::xbrtime_close();
  }

  void after_region(RegionCtx&) {}

  /// Rank 0's allreduce-only cycles (pass 0) and host µs (untraced passes)
  /// of the most recent region.
  std::vector<std::uint64_t> allreduce_cycles_;
  std::vector<double> allreduce_host_us_;

 private:
  std::uint64_t seed_;
  std::vector<long> expected_;
};

RegionPlan sync_plan(int n_pes, int workers) {
  RegionPlan plan;
  plan.config = base_config(n_pes, workers);
  plan.config.topology_name = "flat";
  plan.steps_per_pass = kStepsPerPass;
  return plan;
}

void cross_check_barrier(const RegionCtx& ctx, Report& report) {
  const std::uint64_t committed = committed_scaling_barrier(kPes);
  std::printf("cross-check: %d-PE barrier models %llu cycles; "
              "BENCH_scaling.json has %llu\n",
              kPes, static_cast<unsigned long long>(ctx.barrier_cycles),
              static_cast<unsigned long long>(committed));
  if (committed == 0) {
    report.error("BENCH_scaling.json has no barrier_cycles at 1024 PEs");
  } else if (ctx.barrier_cycles != committed) {
    report.error("1024-PE barrier models " +
                 std::to_string(ctx.barrier_cycles) + " cycles, " +
                 "BENCH_scaling.json says " + std::to_string(committed));
  }
}

}  // namespace

bool run_sync_scale(const Options& opts, Report& report) {
  RegionPlan plan = sync_plan(kPes, opts.workers);
  if (!print_environment(opts, plan.config)) return false;

  {
    SyncScale reduced(opts.seed, kReducedPes);
    check_worker_invariance(reduced, sync_plan(kReducedPes, 1), opts.workers,
                            report);
  }

  SyncScale w(opts.seed, kPes);
  if (!opts.trace) {
    const auto regions = measure_e2e(w, plan, opts, kSetups, report);
    cross_check_barrier(*regions.front(), report);
    return true;
  }

  RegionPlan setup_plan = plan;
  setup_plan.setup_only = true;
  setup_plan.trace_setup = true;
  setup_plan.span_capacity = 64;
  const auto setup = run_region(w, setup_plan);

  RegionPlan traced = plan;
  traced.fixed_steps = 4 * kStepsPerPass;
  traced.trace_odd_passes = true;
  traced.probe_barrier = true;
  traced.span_capacity = 256;
  const auto measured = run_region(w, traced);
  fold_errors(*setup, report);
  fold_errors(*measured, report);
  report.attempted += measured->ops();
  cross_check_barrier(*measured, report);

  LayerValues v;
  counter_layer_metrics(*measured, *setup, measured->ops(), v);
  setup_and_trace_metrics(*measured, *setup, v);
  std::vector<std::uint64_t> cycles = w.allreduce_cycles_;
  std::sort(cycles.begin(), cycles.end());
  std::vector<double> host = w.allreduce_host_us_;
  std::sort(host.begin(), host.end());
  v["coll.allreduce.cycles_p50"] =
      static_cast<double>(percentile(cycles, 0.5));
  v["coll.allreduce.host_us_p50"] = percentile(host, 0.5);
  v["coll.small.cycles_p50"] = static_cast<double>(percentile(cycles, 0.5));
  emit_layer_metrics(v, report);
  print_span_table(*setup, *measured);
  write_spans(opts, *setup, *measured);
  return true;
}

}  // namespace perfbench
