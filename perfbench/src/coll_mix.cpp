// coll_mix: 64 PEs on cluster4x8_16x64 (BENCH_osu.json's 64-PE machine,
// per-hop 40) run a seeded sequence of blocking broadcast / reduce /
// allreduce / allgather calls, sizes log-uniform from 8 B to 128 KiB, roots
// random, algorithm picked by the default auto policy with no tune table.
// One op is one barrier-bracketed collective timed on rank 0, exactly as the
// tuner measures a candidate.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "collectives/composed.hpp"
#include "collectives/policy.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kPes = 64;
constexpr int kReducedPes = 32;
constexpr std::uint64_t kOpsPerPass = 160;
constexpr std::uint64_t kReducedOps = 16;
constexpr std::uint64_t kRegretOps = 32;
constexpr std::size_t kMaxElems = 16384;  // 128 KiB of longs
constexpr std::size_t kSmallBytes = 8192;
constexpr int kSetups = 3;

using xbgas::CollKind;

const char* const kSpanNames[] = {"coll.broadcast", "coll.reduce",
                                  "coll.allreduce", "coll.allgather"};

struct CollOp {
  CollKind kind = CollKind::kBroadcast;
  std::size_t nelems = 1;  ///< elements moved (allgather: the concatenation)
  std::size_t per = 0;     ///< allgather: elements per PE
  int root = 0;
  std::uint64_t seed = 0;

  std::size_t bytes() const { return nelems * sizeof(long); }
};

/// `count` ops: [8 B, 128 KiB] is cut into `count` equal strata in log
/// scale, op i draws its size log-uniformly inside stratum i and has kind
/// i % 4, then the sequence is shuffled. Stratifying keeps the size and kind
/// mix — which dominates both clocks — the same for every seed; the seed
/// moves sizes within their strata, roots, data, and order.
std::vector<CollOp> make_ops(std::uint64_t seed, int n_pes,
                             std::uint64_t count) {
  std::vector<CollOp> ops;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t h = mix64(seed ^ mix64(i + 1));
    CollOp op;
    op.kind = static_cast<CollKind>(i % 4);
    // log2(bytes) uniform in [3, 17] across strata: 8 B .. 128 KiB.
    const double u = static_cast<double>((h >> 8) & ((1ull << 40) - 1)) /
                     static_cast<double>(1ull << 40);
    const double x =
        (static_cast<double>(i) + u) / static_cast<double>(count);
    const auto bytes =
        static_cast<std::size_t>(std::llround(std::exp2(3.0 + 14.0 * x)));
    op.nelems = std::clamp<std::size_t>(bytes / sizeof(long), 1, kMaxElems);
    if (op.kind == CollKind::kAllgather) {
      op.per = std::max<std::size_t>(
          op.nelems / static_cast<std::size_t>(n_pes), 1);
      op.nelems = op.per * static_cast<std::size_t>(n_pes);
    }
    op.root = static_cast<int>(mix64(h) % static_cast<std::uint64_t>(n_pes));
    op.seed = mix64(h ^ seed);
    ops.push_back(op);
  }
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[mix64(seed + i) % i]);
  }
  return ops;
}

/// Seeded input element `e` of `pe` for one op (24-bit signed: sums over
/// every PE stay exact).
long input(std::uint64_t op_seed, int pe, std::size_t e) {
  return static_cast<long>(
             mix64(op_seed ^ (static_cast<std::uint64_t>(pe) << 40) ^ e) &
             0xffffff) -
         0x800000;
}

class CollMix {
 public:
  CollMix(std::uint64_t seed, int n_pes, std::uint64_t count)
      : n_pes_(n_pes), ops_(make_ops(seed, n_pes, count)) {}

  std::uint64_t ops_per_pass() const { return ops_.size(); }
  std::uint64_t repeat_steps() const { return 8; }
  const std::vector<CollOp>& ops() const { return ops_; }

  struct Pe {
    Pe(CollMix&, xbgas::PeContext& pe_ctx, RegionCtx& ctx) : pe(pe_ctx) {
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
        dest = static_cast<long*>(
            xbgas::xbrtime_malloc(kMaxElems * sizeof(long)));
        src = static_cast<long*>(
            xbgas::xbrtime_malloc(kMaxElems * sizeof(long)));
      }
      if (root) ctx.malloc_s = seconds_between(t0, Clock::now());
      std::fill(src, src + kMaxElems, 1);
    }
    xbgas::PeContext& pe;
    long* dest = nullptr;
    long* src = nullptr;
  };

  /// One op of each kind at the largest size: staging high-water marks and
  /// the policy cache settle before anything is timed.
  void warm(Pe& st, RegionCtx& ctx) {
    Scope s(ctx.spans, "bench.warm", -1, true);
    for (int k = 0; k < 4; ++k) {
      CollOp op;
      op.kind = static_cast<CollKind>(k);
      op.nelems = kMaxElems;
      op.per = kMaxElems / static_cast<std::size_t>(n_pes_);
      run(op, st);
      xbgas::xbrtime_barrier();
    }
  }

  void step(Pe& st, std::uint64_t i, RegionCtx& ctx) {
    const int rank = st.pe.rank();
    const CollOp& op = ops_[i % ops_.size()];
    const std::uint64_t pass = i / ops_.size();
    std::vector<long>& golden = golden_[i % 2];

    // Inputs for this op, and (rank 0) the serial golden result.
    const std::size_t count =
        op.kind == CollKind::kAllgather ? op.per : op.nelems;
    if (op.kind != CollKind::kBroadcast || rank == op.root) {
      for (std::size_t e = 0; e < count; ++e) {
        st.src[e] = input(op.seed, rank, e);
      }
    }
    if (rank == 0) make_golden(op, golden);
    xbgas::xbrtime_barrier();

    const Clock::time_point t0 = Clock::now();
    const std::uint64_t c0 = st.pe.clock().cycles();
    {
      Scope span(ctx.spans, kSpanNames[static_cast<int>(op.kind)],
                 static_cast<std::int64_t>(i), true);
      run(op, st);
    }
    ctx.pace(rank, i + 1);
    {
      Scope span(ctx.spans, "machine.barrier", static_cast<std::int64_t>(i),
                 true);
      xbgas::xbrtime_barrier();
    }
    if (rank == 0) {
      const std::uint64_t cycles = st.pe.clock().cycles() - c0;
      const double host_s = seconds_between(t0, Clock::now());
      ctx.sample(0, i, cycles);
      ctx.window(pass, host_s, 1);
      if (pass == 0) cycles_.push_back(cycles);
      if (pass % 2 == 0) {
        host_us_.emplace_back(i % ops_.size(), host_s * 1e6);
      }
    }

    const bool checks = op.kind != CollKind::kReduce || rank == op.root;
    if (checks && !std::equal(golden.begin(), golden.end(), st.dest)) {
      ctx.fail_op(i, "coll_mix op " + std::to_string(i) + " (" +
                         xbgas::coll_kind_name(op.kind) + ", " +
                         std::to_string(op.bytes()) + " B, root " +
                         std::to_string(op.root) + "): PE " +
                         std::to_string(rank) + " differs from golden");
    }
  }

  void finish(Pe& st, RegionCtx&) {
    xbgas::xbrtime_free(st.src);
    xbgas::xbrtime_free(st.dest);
    xbgas::xbrtime_close();
  }

  void after_region(RegionCtx&) {}

  /// Rank 0, most recent regions: per-op cycles of pass 0 and (op index,
  /// host µs) of even (untraced) passes.
  std::vector<std::uint64_t> cycles_;
  std::vector<std::pair<std::uint64_t, double>> host_us_;

 private:
  void run(const CollOp& op, Pe& st) {
    switch (op.kind) {
      case CollKind::kBroadcast:
        xbgas::dispatch_broadcast(st.dest, st.src, op.nelems, 1, op.root);
        break;
      case CollKind::kReduce:
        xbgas::dispatch_reduce<xbgas::OpSum>(st.dest, st.src, op.nelems, 1,
                                             op.root);
        break;
      case CollKind::kAllreduce:
        xbgas::reduce_all<xbgas::OpSum>(st.dest, st.src, op.nelems, 1);
        break;
      case CollKind::kAllgather:
        xbgas::fcollect(st.dest, st.src, op.per);
        break;
    }
  }

  void make_golden(const CollOp& op, std::vector<long>& g) const {
    g.assign(op.nelems, 0);
    switch (op.kind) {
      case CollKind::kBroadcast:
        for (std::size_t e = 0; e < op.nelems; ++e) {
          g[e] = input(op.seed, op.root, e);
        }
        break;
      case CollKind::kReduce:
      case CollKind::kAllreduce:
        for (int pe = 0; pe < n_pes_; ++pe) {
          for (std::size_t e = 0; e < op.nelems; ++e) {
            g[e] += input(op.seed, pe, e);
          }
        }
        break;
      case CollKind::kAllgather:
        for (int pe = 0; pe < n_pes_; ++pe) {
          for (std::size_t e = 0; e < op.per; ++e) {
            g[static_cast<std::size_t>(pe) * op.per + e] =
                input(op.seed, pe, e);
          }
        }
        break;
    }
  }

  int n_pes_;
  std::vector<CollOp> ops_;
  std::vector<long> golden_[2];  ///< double-buffered: op i uses golden_[i%2]
};

RegionPlan coll_plan(int n_pes, int workers, std::uint64_t ops,
                     const std::string& algo) {
  RegionPlan plan;
  plan.config = base_config(n_pes, workers);
  plan.config.topology_name = "cluster4x8_16x64";
  plan.config.net.per_hop_cycles = 40;
  plan.config.coll_algo = algo;
  plan.steps_per_pass = ops;
  return plan;
}

/// BENCH_osu.json's method for one point on a fresh 64-PE machine: warm
/// once, then barrier, time one auto-dispatched broadcast of 128 longs from
/// root 0 plus the closing barrier on rank 0.
void cross_check_osu(int workers, Report& report) {
  constexpr std::size_t kNelems = 128;
  xbgas::Machine machine(coll_plan(kPes, workers, 1, "auto").config);
  std::uint64_t cycles = 0;
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    auto* dest = static_cast<long*>(
        xbgas::xbrtime_malloc(kMaxElems * sizeof(long)));
    auto* src = static_cast<long*>(
        xbgas::xbrtime_malloc(kMaxElems * sizeof(long)));
    for (std::size_t i = 0; i < kMaxElems; ++i) {
      src[i] = static_cast<long>(i + 1);
    }
    xbgas::dispatch_broadcast(dest, src, kNelems, 1, 0);
    xbgas::xbrtime_barrier();
    const std::uint64_t t0 = pe.clock().cycles();
    xbgas::dispatch_broadcast(dest, src, kNelems, 1, 0);
    xbgas::xbrtime_barrier();
    if (pe.rank() == 0) cycles = pe.clock().cycles() - t0;
    xbgas::xbrtime_free(src);
    xbgas::xbrtime_free(dest);
    xbgas::xbrtime_close();
  });
  const std::uint64_t committed =
      committed_osu_model(kPes, "broadcast", kNelems);
  std::printf("cross-check: 64-PE broadcast of %zu B models %llu cycles; "
              "BENCH_osu.json model has %llu\n",
              kNelems * sizeof(long), static_cast<unsigned long long>(cycles),
              static_cast<unsigned long long>(committed));
  if (committed == 0) {
    report.error("BENCH_osu.json has no 64-PE broadcast model at 1024 B");
  } else if (cycles != committed) {
    report.error("64-PE broadcast of 1024 B models " +
                 std::to_string(cycles) + " cycles, BENCH_osu.json says " +
                 std::to_string(committed));
  }
}

double family_cost(const xbgas::CollectivePolicy& policy, const CollOp& op,
                   xbgas::CollAlgo algo) {
  switch (algo) {
    case xbgas::CollAlgo::kRing:
      return policy.ring_cost(op.kind, kPes, op.nelems, sizeof(long));
    case xbgas::CollAlgo::kHier:
      return policy.hier_cost(op.kind, kPes, op.nelems, sizeof(long));
    default:
      return policy.tree_cost(op.kind, kPes, op.nelems, sizeof(long));
  }
}

/// Policy metrics on pass 0: decide() host cost, the chosen family's model
/// error against the measured cycles, and the regret of the model's pick
/// against the best forced family on the first ops (whose outputs are
/// verified like every other op).
void policy_metrics(const CollMix& w, const xbgas::MachineConfig& config,
                    std::uint64_t seed, int workers, LayerValues& v,
                    Report& report) {
  const xbgas::CollectivePolicy policy(config);
  const std::vector<CollOp>& ops = w.ops();

  constexpr int kDecideReps = 200;
  volatile int sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kDecideReps; ++r) {
    for (const CollOp& op : ops) {
      sink = sink + static_cast<int>(
                        policy.decide(op.kind, kPes, op.nelems, sizeof(long))
                            .algo);
    }
  }
  v["coll.policy.decide_ns"] = seconds_between(t0, Clock::now()) * 1e9 /
                               static_cast<double>(kDecideReps * ops.size());

  double err = 0.0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CollOp& op = ops[i];
    const xbgas::CollDecision d =
        policy.decide(op.kind, kPes, op.nelems, sizeof(long));
    const double measured = static_cast<double>(w.cycles_[i]);
    err += std::abs(family_cost(policy, op, d.algo) - measured) / measured;
  }
  v["coll.policy.model_error_pct"] =
      100.0 * err / static_cast<double>(ops.size());

  // Best forced family per op, each family on its own fresh machine.
  std::vector<std::uint64_t> best(kRegretOps, ~std::uint64_t{0});
  for (const char* algo : {"tree", "ring", "hier"}) {
    CollMix forced(seed, kPes, kOpsPerPass);
    RegionPlan plan = coll_plan(kPes, workers, kRegretOps, algo);
    plan.fixed_steps = kRegretOps;
    fold_errors(*run_region(forced, plan), report);
    for (std::uint64_t i = 0; i < kRegretOps; ++i) {
      best[i] = std::min(best[i], forced.cycles_[i]);
    }
  }
  double picked = 0.0;
  double ideal = 0.0;
  for (std::uint64_t i = 0; i < kRegretOps; ++i) {
    picked += static_cast<double>(w.cycles_[i]);
    ideal += static_cast<double>(best[i]);
  }
  v["coll.policy.regret_pct"] = 100.0 * (picked - ideal) / ideal;
}

void kind_metrics(const CollMix& w, LayerValues& v) {
  const std::vector<CollOp>& ops = w.ops();
  std::vector<std::uint64_t> cycles[4];
  std::vector<double> host[4];
  std::vector<std::uint64_t> small;
  std::vector<std::uint64_t> large;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    cycles[static_cast<int>(ops[i].kind)].push_back(w.cycles_[i]);
    (ops[i].bytes() < kSmallBytes ? small : large).push_back(w.cycles_[i]);
  }
  for (const auto& [idx, us] : w.host_us_) {
    host[static_cast<int>(ops[idx].kind)].push_back(us);
  }
  for (int k = 0; k < 4; ++k) {
    std::sort(cycles[k].begin(), cycles[k].end());
    std::sort(host[k].begin(), host[k].end());
    const std::string base = kSpanNames[k];
    v[base + ".cycles_p50"] = static_cast<double>(percentile(cycles[k], 0.5));
    v[base + ".host_us_p50"] = percentile(host[k], 0.5);
  }
  std::sort(small.begin(), small.end());
  std::sort(large.begin(), large.end());
  v["coll.small.cycles_p50"] = static_cast<double>(percentile(small, 0.5));
  v["coll.large.cycles_p50"] = static_cast<double>(percentile(large, 0.5));
}

}  // namespace

bool run_coll_mix(const Options& opts, Report& report) {
  const RegionPlan plan = coll_plan(kPes, opts.workers, kOpsPerPass, "auto");
  if (!print_environment(opts, plan.config)) return false;

  {
    CollMix reduced(opts.seed, kReducedPes, kReducedOps);
    check_worker_invariance(
        reduced, coll_plan(kReducedPes, 1, kReducedOps, "auto"), opts.workers,
        report);
  }
  cross_check_osu(opts.workers, report);

  CollMix w(opts.seed, kPes, kOpsPerPass);
  if (!opts.trace) {
    (void)measure_e2e(w, plan, opts, kSetups, report);
    return true;
  }

  RegionPlan setup_plan = plan;
  setup_plan.setup_only = true;
  setup_plan.trace_setup = true;
  setup_plan.span_capacity = 64;
  const auto setup = run_region(w, setup_plan);

  w.cycles_.clear();
  w.host_us_.clear();
  RegionPlan traced = plan;
  traced.fixed_steps = 4 * kOpsPerPass;
  traced.trace_odd_passes = true;
  traced.probe_barrier = true;
  traced.span_capacity = 4 * kOpsPerPass;
  const auto measured = run_region(w, traced);
  fold_errors(*setup, report);
  fold_errors(*measured, report);
  report.attempted += measured->ops();

  LayerValues v;
  counter_layer_metrics(*measured, *setup, measured->ops(), v);
  setup_and_trace_metrics(*measured, *setup, v);
  kind_metrics(w, v);
  policy_metrics(w, plan.config, opts.seed, opts.workers, v, report);
  emit_layer_metrics(v, report);
  print_span_table(*setup, *measured);
  write_spans(opts, *setup, *measured);
  return true;
}

}  // namespace perfbench
