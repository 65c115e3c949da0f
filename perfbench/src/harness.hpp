#pragma once

// Shared machinery of the end-to-end benchmark (perfbench/README.md): the
// metric report, the benchmark-side span log, percentile helpers, the
// counter snapshot, and run_region(), which owns one Machine's life cycle —
// construction, setup, a paced measurement loop, and teardown — for any of
// the three workloads.
//
// Everything here sits *outside* the simulator: it times and counts calls
// into the public API and reads the counters the stack already exports. It
// adds no instrumentation to src/.
//
// Two clocks, never mixed: "modeled" values come from PE SimClocks and the
// modeled machine's counters and must repeat bit for bit for one seed;
// "host" values come from std::chrono::steady_clock, getrusage, and the
// host-scheduling counters (sched.*), and are never compared for identity.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "trace/counters.hpp"
#include "xbrtime/runtime.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int workers = 4;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

enum class ClockKind { kModeled, kHost };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  ClockKind clock = ClockKind::kHost;
  std::string note;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           ClockKind clock, const std::string& note = "");
  /// Record a verification or cross-check failure (makes the run incorrect).
  void error(const std::string& what);
  bool correct() const { return errors_.empty() && failed == 0; }

  /// Human-readable table: name, value, unit, clock class, note.
  void print_table(const std::string& title) const;
  /// The one-line JSON result; must be the last line of stdout.
  void print_json() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of a sorted sample (p in (0, 1]).
std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double p);
double percentile(const std::vector<double>& sorted, double p);

/// The highest of p50/p90/p95/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it; falls back to the maximum for tiny samples.
struct Tail {
  double pct = 100.0;
  std::uint64_t value = 0;
  std::size_t beyond = 0;
};
Tail tail_of(const std::vector<std::uint64_t>& sorted);

double median(std::vector<double> values);

/// FNV-1a fold of one 64-bit value into a running digest.
inline std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xffu;
    digest *= 0x100000001b3ull;
  }
  return digest;
}
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;

/// SplitMix64 finalizer: the benchmark's only source of generated inputs.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer, recorded by the benchmark around a public
/// API call. Host times are ns since the log's epoch; cycles are the calling
/// PE's SimClock (0 on the host thread).
struct Span {
  const char* name = "";
  std::int64_t op = -1;        ///< op id (-1: setup)
  std::int32_t parent = -1;    ///< index of the enclosing span, same slot
  bool blocking = false;       ///< may park: host span includes other fibers
  std::int64_t host0 = 0;
  std::int64_t host1 = 0;
  std::uint64_t cyc0 = 0;
  std::uint64_t cyc1 = 0;
};

/// Per-slot in-memory span buffers: slot 0 is the host thread (Machine
/// construction, region spawn), slot r+1 is PE r. Each slot is written only
/// by its own fiber, so recording takes no lock. Buffers are bounded; spans
/// past the bound are counted as dropped, never silently lost.
class SpanLog {
 public:
  void reset(int n_pes, std::size_t capacity_per_slot);
  void set_enabled(int slot, bool on) { slots_[slot].on = on; }
  bool enabled(int slot) const { return slots_[slot].on; }
  /// Returns the span index, or -1 when the slot is disabled or full.
  int begin(int slot, const char* name, std::int64_t op, std::uint64_t cycles,
            bool blocking);
  void end(int slot, int index, std::uint64_t cycles);

  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  struct NameTotals {
    std::uint64_t count = 0;
    double host_s = 0.0;       ///< sum of span durations
    double self_s = 0.0;       ///< minus the time child spans cover
    std::uint64_t cycles = 0;  ///< sum of modeled span durations
    bool blocking = false;
  };
  /// Totals per span name, over every slot.
  std::map<std::string, NameTotals> totals() const;

  /// Write every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Slot {
    bool on = false;
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices
    std::size_t capacity = 0;
    std::uint64_t dropped = 0;
  };
  std::vector<Slot> slots_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span on the calling PE's slot (or the host slot off-fiber).
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::int64_t op = -1,
        bool blocking = false);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int slot_ = 0;
  int index_ = -1;
};

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Zero the process-wide ledgers (coll dispatch/tuner/pipeline, rma.nbi, wc,
/// serving) before a region, so a snapshot after it covers only that region.
void reset_ledgers();

/// collect_counters() plus the process-wide ledgers folded in under the
/// names benchlib uses. Call with the machine quiescent.
xbgas::CounterRegistry snapshot_counters(const xbgas::Machine& machine);

/// Digest of the modeled counters (OLB, caches, TLB, network, cycles.max):
/// equal across worker counts and repeats by the determinism contract.
std::uint64_t modeled_counter_digest(const xbgas::CounterRegistry& reg);

/// Delta of one counter between two snapshots (missing counts as 0).
double counter_delta(const xbgas::CounterRegistry& after,
                     const xbgas::CounterRegistry& before,
                     const std::string& name);

double peak_rss_mb();

// ---------------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------------

/// How one Machine is driven. A step is the workload's pacing unit (a solver
/// step, one collective, one request batch); a pass is steps_per_pass steps,
/// the seeded input sequence once through.
struct RegionPlan {
  xbgas::MachineConfig config;
  std::uint64_t steps_per_pass = 1;
  /// > 0: run exactly this many steps. Otherwise run whole passes until
  /// `budget_s` of host time has passed since setup, so every seed measures
  /// the same input mix.
  std::uint64_t fixed_steps = 0;
  double budget_s = 0.0;
  bool setup_only = false;      ///< stop after setup and the warm pass
  bool trace_setup = false;     ///< record spans during setup
  bool trace_odd_passes = false;  ///< record spans in passes 1, 3, ...
  bool probe_barrier = false;   ///< time back-to-back barriers at the end
  std::size_t span_capacity = 0;
};

/// Modeled per-op samples of one PE: pass 0 kept whole, every step digested.
struct PeSamples {
  std::vector<std::uint64_t> pass0;
  std::vector<std::uint64_t> step_digests;
};

/// Shared by all PEs of one region. Rank-0-only fields are written by rank
/// 0's fiber and read after Machine::run returns.
class RegionCtx {
 public:
  RegionCtx(const RegionPlan& plan, int n_pes);

  const RegionPlan& plan;
  const int n_pes;
  SpanLog spans;

  // Setup phases, host seconds (rank 0).
  Clock::time_point t_ctor0;
  Clock::time_point t_spawn0;
  double ctor_s = 0.0;
  double spawn_s = 0.0;
  double init_s = 0.0;
  double malloc_s = 0.0;
  double serving_setup_s = 0.0;
  double setup_s = 0.0;

  // Measurement window (rank 0): host seconds and ops per pass.
  std::vector<double> pass_host_s;
  std::vector<std::uint64_t> pass_ops;
  std::vector<std::uint64_t> pass_span_cycles;
  std::uint64_t steps = 0;

  // Barrier probe (rank 0).
  std::uint64_t barrier_cycles = 0;
  double barrier_host_us = 0.0;

  std::vector<PeSamples> samples;  ///< per rank

  /// Counters after the region, and sched stats.
  xbgas::CounterRegistry counters;
  xbgas::SchedStats sched{};

  /// Pacing: rank 0 calls pace() right before the step's final barrier;
  /// every PE calls keep_going() after it. All PEs stop after the same step.
  void pace(int rank, std::uint64_t steps_done);
  bool keep_going(std::uint64_t steps_done) const;

  /// Record one modeled per-op sample for `rank` in step `step`.
  void sample(int rank, std::uint64_t step, std::uint64_t cycles);
  /// Rank 0: host seconds and ops of one measured step.
  void window(std::uint64_t pass, double host_s, std::uint64_t ops);

  /// Verification failures, from any PE. fail_op() marks one op (by id)
  /// as failed; an op that fails on several PEs counts once.
  void error(const std::string& what);
  void fail_op(std::uint64_t op, const std::string& what);
  std::vector<std::string> errors() const;
  std::uint64_t failed_ops() const;

  double window_s() const;
  std::uint64_t ops() const;
  std::uint64_t passes() const { return pass_span_cycles.size(); }
  /// True when every sample both regions took for the same (rank, step)
  /// is identical, and so is every common pass's modeled span.
  bool same_modeled(const RegionCtx& other) const;
  /// All ranks' pass-0 samples, sorted.
  std::vector<std::uint64_t> pass0_sorted() const;

 private:
  Clock::time_point deadline_{};
  std::atomic<std::uint64_t> stop_at_{~std::uint64_t{0}};
  mutable std::mutex errors_mutex_;
  std::vector<std::string> errors_;
  std::set<std::uint64_t> failed_ops_;
  friend void start_window(RegionCtx& ctx);
};

void start_window(RegionCtx& ctx);

/// Time `reps` back-to-back world barriers on rank 0 (bench_scaling's
/// method): modeled cycles and host µs per barrier.
void probe_barrier(xbgas::PeContext& pe, RegionCtx& ctx, int reps);

/// Drive one Machine through `plan` with workload `W`:
///   W::Pe(W&, PeContext&, RegionCtx&)    per-PE setup (init, allocations)
///   void W::warm(Pe&, RegionCtx&)         warm pass (part of setup)
///   void W::step(Pe&, std::uint64_t i, RegionCtx&)
///       one step of the seeded sequence; rank 0 calls ctx.pace() right
///       before the step's final barrier and ctx.window() after it
///   void W::finish(Pe&, RegionCtx&)       verification and teardown
///   void W::after_region(RegionCtx&)      checks over all PEs' results
template <class W>
std::unique_ptr<RegionCtx> run_region(W& w, const RegionPlan& plan) {
  reset_ledgers();
  auto owned = std::make_unique<RegionCtx>(plan, plan.config.n_pes);
  RegionCtx& ctx = *owned;
  ctx.spans.set_enabled(0, plan.trace_setup);

  ctx.t_ctor0 = Clock::now();
  std::unique_ptr<xbgas::Machine> machine;
  {
    Scope ctor(ctx.spans, "machine.ctor");
    machine = std::make_unique<xbgas::Machine>(plan.config);
  }
  ctx.ctor_s = seconds_between(ctx.t_ctor0, Clock::now());

  const int spawn = ctx.spans.begin(0, "machine.spawn", -1, 0, false);
  ctx.t_spawn0 = Clock::now();
  machine->run([&](xbgas::PeContext& pe) {
    const int rank = pe.rank();
    if (rank == 0) {
      ctx.spawn_s = seconds_between(ctx.t_spawn0, Clock::now());
      ctx.spans.end(0, spawn, 0);
    }
    ctx.spans.set_enabled(rank + 1, plan.trace_setup);
    typename W::Pe st(w, pe, ctx);
    w.warm(st, ctx);
    xbgas::xbrtime_barrier();
    if (rank == 0) start_window(ctx);
    if (!plan.setup_only) {
      const std::uint64_t n = plan.steps_per_pass;
      std::uint64_t pass_c0 = 0;
      for (std::uint64_t i = 0;; ++i) {
        if (i % n == 0) {
          ctx.spans.set_enabled(rank + 1,
                                plan.trace_odd_passes && (i / n) % 2 == 1);
          pass_c0 = pe.clock().cycles();
        }
        w.step(st, i, ctx);
        // Every step ends in a barrier, which sets each PE's clock to the
        // slowest one's: rank 0's span is the slowest PE's.
        if (rank == 0 && (i + 1) % n == 0) {
          ctx.pass_span_cycles.push_back(pe.clock().cycles() - pass_c0);
        }
        if (!ctx.keep_going(i + 1)) {
          if (rank == 0) ctx.steps = i + 1;
          break;
        }
      }
    }
    ctx.spans.set_enabled(rank + 1, false);
    if (plan.probe_barrier) probe_barrier(pe, ctx, 8);
    w.finish(st, ctx);
  });
  ctx.counters = snapshot_counters(*machine);
  ctx.sched = machine->sched_stats();
  w.after_region(ctx);
  return owned;
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// The canonical per-layer metric list (name, unit, clock), in output order.
/// Every traced run prints all of them; layers a workload does not exercise
/// read 0 and are marked "n/a" in the table.
struct LayerMetricDef {
  const char* name;
  const char* unit;
  ClockKind clock;
};
const std::vector<LayerMetricDef>& layer_metric_defs();

/// Values keyed by layer metric name; unset names print as 0 ("n/a").
using LayerValues = std::map<std::string, double>;

/// Fill the counter-derived layer metrics shared by all workloads from the
/// measured region minus the setup-only region, normalized per op.
void counter_layer_metrics(const RegionCtx& measured, const RegionCtx& setup,
                           std::uint64_t ops, LayerValues& out);

/// Setup-phase and trace-overhead layer metrics from the two regions.
void setup_and_trace_metrics(const RegionCtx& measured,
                             const RegionCtx& setup, LayerValues& out);

/// Emit every per-layer metric into the report and print the span table.
void emit_layer_metrics(const LayerValues& values, Report& report);
void print_span_table(const RegionCtx& setup, const RegionCtx& measured);

/// Write both regions' spans to .bench_build/spans/<workload>-seed<N>.jsonl.
void write_spans(const Options& opts, const RegionCtx& setup,
                 const RegionCtx& measured);

// ---------------------------------------------------------------------------
// End-to-end metrics
// ---------------------------------------------------------------------------

/// The end-to-end metrics and the cross-machine repeatability check from
/// the regions measure_e2e ran.
void report_e2e(const std::vector<std::unique_ptr<RegionCtx>>& regions,
                std::uint64_t ops_per_pass, Report& report);

/// Run `setups` fresh machines back to back under `plan` and report the
/// end-to-end metrics. Machine 0 measures: whole passes for opts.seconds,
/// giving host_ops_per_s and, from its first pass, the modeled op latency
/// and throughput. The others only repeat set-up (setup_s is the median over
/// all machines) and the first `w.repeat_steps()` steps, which must
/// reproduce machine 0's modeled samples bit for bit.
template <class W>
std::vector<std::unique_ptr<RegionCtx>> measure_e2e(W& w, RegionPlan plan,
                                                    const Options& opts,
                                                    int setups,
                                                    Report& report) {
  std::vector<std::unique_ptr<RegionCtx>> regions;
  plan.budget_s = opts.seconds;
  for (int s = 0; s < setups; ++s) {
    plan.probe_barrier = s == 0;
    plan.fixed_steps = s == 0 ? 0 : w.repeat_steps();
    regions.push_back(run_region(w, plan));
  }
  report_e2e(regions, w.ops_per_pass(), report);
  return regions;
}

/// Digest of a region's modeled samples, pass spans and modeled counters.
std::uint64_t region_digest(const RegionCtx& ctx);

/// Reduced-size determinism check: the same workload on 1 worker and on
/// `workers` must produce identical modeled samples and modeled counters.
template <class W>
void check_worker_invariance(W& w, RegionPlan plan, int workers,
                             Report& report) {
  plan.fixed_steps = plan.steps_per_pass;
  plan.config.sched.workers = 1;
  const std::uint64_t one = region_digest(*run_region(w, plan));
  plan.config.sched.workers = workers;
  const std::uint64_t many = region_digest(*run_region(w, plan));
  std::printf("repeatability: reduced %d-PE run, modeled digest %016llx on "
              "1 worker, %016llx on %d\n",
              plan.config.n_pes, static_cast<unsigned long long>(one),
              static_cast<unsigned long long>(many), workers);
  if (one != many) {
    report.error("modeled results differ between 1 and " +
                 std::to_string(workers) + " workers on the reduced run");
  }
}

/// Print the run environment; returns false when host metrics must be
/// refused (unoptimized or sanitizer build).
bool print_environment(const Options& opts, const xbgas::MachineConfig& cfg);

/// Fold a region's verification outcome into the report.
void fold_errors(const RegionCtx& ctx, Report& report);

/// Cross-check values from the committed artifacts, read from the checkout
/// root: BENCH_scaling.json's barrier cycles at `n_pes`, BENCH_osu.json's
/// "model" cycles for (pes, kind, nelems). 0 when absent.
std::uint64_t committed_scaling_barrier(int n_pes);
std::uint64_t committed_osu_model(int pes, const std::string& kind,
                                  std::size_t nelems);

}  // namespace perfbench
