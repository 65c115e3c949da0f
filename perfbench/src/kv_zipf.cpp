// kv_zipf: 64 PEs run fault-free, closed-loop serving traffic against the
// sharded KV store — per-PE Zipf(0.99) keys over 2048 keys, 70% get, 20%
// put (replicated), 10% incr. Each PE sends its next request only when the
// previous one completed; batches end in a barrier, with a checkpoint every
// fourth batch. Single-word RMA reads beside writes beside AMOs, through the
// OLB, with collectives only at batch ends.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serving/client.hpp"
#include "serving/counters.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kPes = 64;
constexpr int kReducedPes = 16;
constexpr std::size_t kKeys = 2048;
constexpr double kZipfS = 0.99;
constexpr int kOpsPerBatch = 50;  // 35 gets, 10 puts, 5 incrs per PE
constexpr std::uint64_t kBatchesPerPass = 16;
constexpr int kSetups = 3;

using Kind = xbgas::ServingRequest::Kind;

xbgas::ServingConfig serving_config() {
  xbgas::ServingConfig c;
  c.n_keys = kKeys;
  c.hot_stripes = 64;
  c.replicate = true;
  c.checkpoint_every = 4;
  return c;
}

/// Per-PE request streams. Keys: Zipf ranks by inverse CDF, scattered over
/// the key space by an odd multiplier so hot keys land on every shard.
/// Kinds: every batch of every PE holds exactly 70% gets, 20% puts and 10%
/// incrs in seeded order, so each PE makes the same number of RMAs per
/// batch for every seed (host scheduling reacts to that count).
std::vector<std::vector<xbgas::ServingRequest>> make_requests(
    std::uint64_t seed, int n_pes) {
  std::vector<double> cdf(kKeys);
  double sum = 0.0;
  for (std::size_t r = 0; r < kKeys; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;

  std::vector<std::vector<xbgas::ServingRequest>> out(
      static_cast<std::size_t>(n_pes));
  const std::size_t per_pe = kBatchesPerPass * kOpsPerBatch;
  for (int pe = 0; pe < n_pes; ++pe) {
    std::uint64_t state = mix64(seed ^ (static_cast<std::uint64_t>(pe) << 32));
    for (std::size_t i = 0; i < per_pe; ++i) {
      state = mix64(state);
      const double u =
          static_cast<double>(state >> 11) / static_cast<double>(1ull << 53);
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      xbgas::ServingRequest req;
      req.key = (std::min(rank, kKeys - 1) * 0x9e37ull) % kKeys;
      const std::uint64_t r = mix64(state ^ 0x5bd1e995u);
      const std::size_t slot = i % kOpsPerBatch;
      req.kind = slot < kOpsPerBatch * 7 / 10   ? Kind::kGet
                 : slot < kOpsPerBatch * 9 / 10 ? Kind::kPut
                                                : Kind::kIncr;
      req.value = req.kind == Kind::kIncr ? 1 + (r >> 8) % 16
                                          : (r >> 8) & 0xffffff;
      out[static_cast<std::size_t>(pe)].push_back(req);
    }
    auto& reqs = out[static_cast<std::size_t>(pe)];
    for (std::size_t b = 0; b < per_pe; b += kOpsPerBatch) {
      for (std::size_t i = kOpsPerBatch; i > 1; --i) {
        state = mix64(state);
        std::swap(reqs[b + i - 1], reqs[b + state % i]);
      }
    }
  }
  return out;
}

class KvZipf {
 public:
  KvZipf(std::uint64_t seed, int n_pes)
      : requests_(make_requests(seed, n_pes)),
        per_pe_(static_cast<std::size_t>(n_pes)) {}

  std::uint64_t ops_per_pass() const {
    return kBatchesPerPass * kOpsPerBatch * requests_.size();
  }
  std::uint64_t repeat_steps() const { return 1; }

  /// Per-PE results, each written only by its own PE's fiber.
  struct PeStats {
    std::uint64_t executed = 0;
    std::uint64_t served = 0;
    std::uint64_t attempts = 0;
    std::uint64_t hot_sum = 0;
    bool books = false;
    std::vector<std::uint64_t> latency[3];  ///< pass 0, by request kind
    std::vector<double> execute_us;         ///< even (untraced) passes
  };

  struct Pe {
    Pe(KvZipf& w, xbgas::PeContext& pe_ctx, RegionCtx& ctx)
        : pe(pe_ctx), stats(w.per_pe_[static_cast<std::size_t>(pe.rank())]) {
      stats = PeStats{};
      const bool root = pe.rank() == 0;
      Clock::time_point t0 = Clock::now();
      {
        Scope s(ctx.spans, "xbrtime.init", -1, true);
        xbgas::xbrtime_init();
      }
      if (root) ctx.init_s = seconds_between(t0, Clock::now());
      t0 = Clock::now();
      {
        Scope s(ctx.spans, "serving.setup", -1, true);
        store = std::make_unique<xbgas::KvStore>(serving_config());
        client =
            std::make_unique<xbgas::ServingClient>(*store, serving_config());
      }
      if (root) ctx.serving_setup_s = seconds_between(t0, Clock::now());
    }
    xbgas::PeContext& pe;
    PeStats& stats;
    std::unique_ptr<xbgas::KvStore> store;
    std::unique_ptr<xbgas::ServingClient> client;
  };

  /// The sequence's first batch, once, untimed.
  void warm(Pe& st, RegionCtx& ctx) {
    Scope s(ctx.spans, "bench.warm", -1, true);
    run_batch(st, 0, ~std::uint64_t{0}, ctx);
    st.client->end_batch();
  }

  void step(Pe& st, std::uint64_t i, RegionCtx& ctx) {
    const int rank = st.pe.rank();
    const std::uint64_t pass = i / kBatchesPerPass;
    const Clock::time_point t0 = Clock::now();
    run_batch(st, i, pass, ctx);
    ctx.pace(rank, i + 1);
    const std::uint64_t c0 = st.pe.clock().cycles();
    const Clock::time_point b0 = Clock::now();
    {
      Scope s(ctx.spans, "serving.end_batch", static_cast<std::int64_t>(i),
              true);
      st.client->end_batch();
    }
    if (rank == 0) {
      const Clock::time_point now = Clock::now();
      ctx.window(pass, seconds_between(t0, now),
                 kOpsPerBatch * requests_.size());
      if (pass == 0) end_batch_cycles_.push_back(st.pe.clock().cycles() - c0);
      if (pass % 2 == 0) {
        end_batch_us_.push_back(seconds_between(b0, now) * 1e6);
      }
    }
  }

  void finish(Pe& st, RegionCtx& ctx) {
    st.stats.books = st.client->counters().books_balance();
    st.client->finish();
    xbgas::xbrtime_barrier();  // every AMO landed before stripes are read
    st.stats.hot_sum = st.store->hot_sum();
    xbgas::xbrtime_barrier();
    st.store->release();
    st.client.reset();
    st.store.reset();
    xbgas::xbrtime_close();
    if (!st.stats.books) {
      ctx.error("kv_zipf: PE " + std::to_string(st.pe.rank()) +
                " ledger does not balance (requests != served + failed)");
    }
  }

  /// Whole-store checks: hot-stripe AMOs equal the attempts the requests
  /// report, and the folded serving.* ledger balances against what the
  /// benchmark sent.
  void after_region(RegionCtx& ctx) {
    std::uint64_t executed = 0;
    std::uint64_t served = 0;
    std::uint64_t attempts = 0;
    std::uint64_t hot = 0;
    for (const PeStats& s : per_pe_) {
      executed += s.executed;
      served += s.served;
      attempts += s.attempts;
      hot += s.hot_sum;
    }
    if (hot != attempts) {
      ctx.error("kv_zipf: hot stripes sum to " + std::to_string(hot) +
                ", requests report " + std::to_string(attempts) +
                " attempts");
    }
    const auto get = [&](const char* name) {
      return ctx.counters.get(name).value_or(0);
    };
    if (get("serving.requests") != executed ||
        get("serving.served") + get("serving.failed") != executed ||
        get("serving.served") != served) {
      ctx.error("kv_zipf: serving ledger (requests " +
                std::to_string(get("serving.requests")) + ", served " +
                std::to_string(get("serving.served")) + ", failed " +
                std::to_string(get("serving.failed")) +
                ") does not match the " + std::to_string(executed) +
                " requests sent");
    }
  }

  /// Serving-layer metrics of the most recent region.
  void layer_metrics(const RegionCtx& measured, const RegionCtx& setup,
                     LayerValues& v) const {
    static const char* const kNames[] = {"serving.get", "serving.put",
                                         "serving.incr"};
    std::uint64_t executed = 0;
    std::uint64_t attempts = 0;
    std::vector<double> exec_us;
    for (int k = 0; k < 3; ++k) {
      std::vector<std::uint64_t> lat;
      for (const PeStats& s : per_pe_) {
        lat.insert(lat.end(), s.latency[k].begin(), s.latency[k].end());
      }
      std::sort(lat.begin(), lat.end());
      const std::string base = kNames[k];
      v[base + ".cycles_p50"] = static_cast<double>(percentile(lat, 0.5));
      v[base + ".cycles_tail"] = static_cast<double>(tail_of(lat).value);
    }
    for (const PeStats& s : per_pe_) {
      executed += s.executed;
      attempts += s.attempts;
      exec_us.insert(exec_us.end(), s.execute_us.begin(),
                     s.execute_us.end());
    }
    v["serving.attempts_per_request"] =
        static_cast<double>(attempts) / static_cast<double>(executed);
    const double hedges =
        counter_delta(measured.counters, setup.counters, "serving.hedges");
    v["serving.hedge_win_frac"] =
        hedges > 0 ? counter_delta(measured.counters, setup.counters,
                                   "serving.redirected") /
                         hedges
                   : 0.0;
    std::vector<std::uint64_t> eb = end_batch_cycles_;
    std::sort(eb.begin(), eb.end());
    v["serving.end_batch.cycles"] = static_cast<double>(percentile(eb, 0.5));
    std::vector<double> eb_us = end_batch_us_;
    std::sort(eb_us.begin(), eb_us.end());
    v["serving.end_batch.host_us"] = percentile(eb_us, 0.5);
    std::sort(exec_us.begin(), exec_us.end());
    v["serving.execute.host_us"] = percentile(exec_us, 0.5);
    v["serving.setup_s"] = setup.serving_setup_s;
  }

  std::vector<std::uint64_t> end_batch_cycles_;
  std::vector<double> end_batch_us_;

 private:
  /// Execute batch `i % kBatchesPerPass` of this PE's stream. `pass` is
  /// ~0 for the warm batch (no samples).
  void run_batch(Pe& st, std::uint64_t i, std::uint64_t pass,
                 RegionCtx& ctx) {
    const int rank = st.pe.rank();
    const std::vector<xbgas::ServingRequest>& reqs =
        requests_[static_cast<std::size_t>(rank)];
    const std::size_t first = (i % kBatchesPerPass) * kOpsPerBatch;
    const bool timed = pass != ~std::uint64_t{0};
    for (std::size_t r = first; r < first + kOpsPerBatch; ++r) {
      const xbgas::ServingRequest& req = reqs[r];
      const std::uint64_t id =
          (static_cast<std::uint64_t>(rank) << 40) | (i * kOpsPerBatch + r);
      const Clock::time_point h0 = Clock::now();
      xbgas::ServingOutcome out;
      {
        Scope s(ctx.spans, "serving.execute", static_cast<std::int64_t>(id));
        out = st.client->execute(req);
      }
      ++st.stats.executed;
      st.stats.attempts += static_cast<std::uint64_t>(out.attempts);
      if (out.served) ++st.stats.served;
      if (!out.served) {
        ctx.fail_op(id, "kv_zipf: request " + std::to_string(r) + " on PE " +
                            std::to_string(rank) + " failed");
      } else if (req.kind == Kind::kGet &&
                 !xbgas::KvStore::tag_matches(req.key, out.value)) {
        ctx.fail_op(id, "kv_zipf: get of key " + std::to_string(req.key) +
                            " on PE " + std::to_string(rank) +
                            " returned a foreign tag");
      }
      if (!timed) continue;
      ctx.sample(rank, i, out.latency_cycles);
      if (pass == 0) {
        st.stats.latency[static_cast<int>(req.kind)].push_back(
            out.latency_cycles);
      }
      if (pass % 2 == 0 && ctx.plan.trace_odd_passes) {
        st.stats.execute_us.push_back(seconds_between(h0, Clock::now()) *
                                      1e6);
      }
    }
  }

  std::vector<std::vector<xbgas::ServingRequest>> requests_;
  std::vector<PeStats> per_pe_;
};

RegionPlan kv_plan(int n_pes, int workers) {
  RegionPlan plan;
  plan.config = base_config(n_pes, workers);
  plan.config.topology_name = "flat";
  plan.steps_per_pass = kBatchesPerPass;
  return plan;
}

}  // namespace

bool run_kv_zipf(const Options& opts, Report& report) {
  const RegionPlan plan = kv_plan(kPes, opts.workers);
  if (!print_environment(opts, plan.config)) return false;

  {
    KvZipf reduced(opts.seed, kReducedPes);
    check_worker_invariance(reduced, kv_plan(kReducedPes, 1), opts.workers,
                            report);
  }

  KvZipf w(opts.seed, kPes);
  if (!opts.trace) {
    (void)measure_e2e(w, plan, opts, kSetups, report);
    return true;
  }

  RegionPlan setup_plan = plan;
  setup_plan.setup_only = true;
  setup_plan.trace_setup = true;
  setup_plan.span_capacity = 64;
  const auto setup = run_region(w, setup_plan);

  w.end_batch_cycles_.clear();
  w.end_batch_us_.clear();
  RegionPlan traced = plan;
  traced.fixed_steps = 4 * kBatchesPerPass;
  traced.trace_odd_passes = true;
  traced.probe_barrier = true;
  traced.span_capacity = 2 * kBatchesPerPass * (kOpsPerBatch + 1) + 64;
  const auto measured = run_region(w, traced);
  fold_errors(*setup, report);
  fold_errors(*measured, report);
  report.attempted += measured->ops();

  LayerValues v;
  counter_layer_metrics(*measured, *setup, measured->ops(), v);
  setup_and_trace_metrics(*measured, *setup, v);
  w.layer_metrics(*measured, *setup, v);
  emit_layer_metrics(v, report);
  print_span_table(*setup, *measured);
  write_spans(opts, *setup, *measured);
  return true;
}

}  // namespace perfbench
