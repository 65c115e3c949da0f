// Chaos-soak SLO harness for the sharded KV serving layer
// (docs/SERVING.md): drive deterministic Zipfian read/write traffic against
// the symmetric-heap store while PEs are killed mid-traffic, let the
// serving clients fail over (agree -> shrink -> restore -> rebalance ->
// replay), and report throughput plus p50/p99/p999 latency split into
// pre/during/post-failover phases. Exits nonzero unless every run recovers,
// every ledger balances (requests == served + failed, per survivor and in
// aggregate — no request is ever silently dropped), soak seeds reproduce
// identical accounting when run twice, and post-failover throughput holds
// at >= 50% of pre-failover.
//
//   Scripted:  bench_serving --pes 12 --fault-kill 3:rma:200
//   Soak:      bench_serving --pes 12 --seeds 6 [--seed-base 1]
//   JSON:      add --json BENCH_serving.json
//
//   --pes N            PEs per machine (default 12)
//   --batches N        request batches per PE (default 18)
//   --ops-per-batch N  requests per batch per PE (default 48)
//   --keys N           keys in the table (default 2048)
//   --stripes N        hot-counter stripes (default 64)
//   --put-pct N        percent puts (default 20)
//   --incr-pct N       percent incrs (default 10; remainder are gets)
//   --zipf-s X         Zipf exponent (default 0.99)
//   --policy P         in-flight policy on failover: replay|failfast
//   --checkpoint-every N  batches between checkpoints (default 4)
//   --no-replicate     disable write-through replication
//   --workload-seed N  traffic seed (default 42; soak seeds derive kills
//                      AND reuse the seed for traffic)
//   --seeds N          soak mode: N seeded runs, each run twice to verify
//                      deterministic accounting
//   --seed-base N      first soak seed (default 1)
//   --json PATH        write the SLO report as JSON
//
// When no --fault-* probability flags are given, a default tail-fault mix
// is injected (drops exhaust the machine's RMA retries often enough to
// exercise serving-level retries; delays overrun the attempt budget often
// enough to exercise hedges). Standard machine/fault/trace flags
// (benchlib/options.hpp) override everything.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/zipf.hpp"
#include "common/cli.hpp"
#include "machine/machine.hpp"
#include "serving/client.hpp"
#include "trace/collect.hpp"
#include "xbrtime/runtime.hpp"

namespace {

constexpr int kNumPhases = 3;
const char* const kPhaseNames[kNumPhases] = {"pre", "during", "post"};

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// 1-2 kills on distinct ranks, derived deterministically from the seed.
/// All kills use the RMA-issue site: every request performs at least two
/// RMA/AMO issues (hot-counter bump + data op), so an issue count inside
/// the traffic range is guaranteed to land mid-traffic — after the
/// symmetric setup, before the tail batches (so a post-failover phase
/// always exists). Barrier-site kills are covered by bench_chaos.
std::vector<xbgas::KillSpec> derive_kills(std::uint64_t seed, int n_pes,
                                          int batches, int ops_per_batch) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  const std::uint64_t traffic =
      static_cast<std::uint64_t>(batches) *
      static_cast<std::uint64_t>(ops_per_batch);
  std::vector<xbgas::KillSpec> kills;
  const int n_kills = 1 + static_cast<int>(splitmix64(s) % 2);
  for (int i = 0; i < n_kills; ++i) {
    xbgas::KillSpec k;
    for (;;) {
      k.rank = static_cast<int>(splitmix64(s) %
                                static_cast<std::uint64_t>(n_pes));
      bool fresh = true;
      for (const xbgas::KillSpec& seen : kills) fresh &= seen.rank != k.rank;
      if (fresh) break;
    }
    k.site = xbgas::KillSite::kRma;
    // Issue counts run ~2.5x the request count; [opb/2, traffic] detects
    // the death by roughly 40% of the batch schedule at the latest.
    k.at = static_cast<std::uint64_t>(ops_per_batch) / 2 +
           splitmix64(s) % (traffic - static_cast<std::uint64_t>(
                                          ops_per_batch) / 2 + 1);
    kills.push_back(k);
  }
  return kills;
}

struct PhaseAgg {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t span = 0;  ///< max modeled-cycle span over survivors
  std::vector<std::uint64_t> latencies;

  double throughput_per_mcycle() const {
    if (span == 0) return 0.0;
    return static_cast<double>(requests) * 1.0e6 /
           static_cast<double>(span);
  }
  std::uint64_t percentile(double p) const {
    if (latencies.empty()) return 0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[std::min(idx, latencies.size() - 1)];
  }
};

struct SeedResult {
  bool region_ok = false;
  bool recovered = false;   ///< kills fired and every death was failed over
  bool books_ok = false;    ///< per-survivor and aggregate ledgers balance
  bool tput_ok = false;     ///< post >= 50% of pre throughput
  std::uint64_t kills = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t restores = 0;
  int pes_alive = 0;
  xbgas::ServingCounters totals;
  PhaseAgg phases[kNumPhases];
  std::string plan;

  bool ok(bool expect_kills) const {
    return region_ok && books_ok && tput_ok &&
           (!expect_kills || recovered);
  }
};

/// Accounting totals that must be bit-identical across reruns of one seed.
struct AccountingKey {
  std::uint64_t v[12];
  bool operator==(const AccountingKey& o) const {
    for (int i = 0; i < 12; ++i) {
      if (v[i] != o.v[i]) return false;
    }
    return true;
  }
};

AccountingKey accounting_key(const xbgas::ServingCounters& c) {
  return AccountingKey{{c.requests, c.served, c.failed, c.retries,
                        c.requests_retried, c.hedges, c.redirected,
                        c.replica_skips, c.failovers, c.replayed,
                        c.failed_fast, c.rebalanced_keys}};
}

struct BenchParams {
  xbgas::ServingConfig serving;
  xbgas::ServingMix mix;
  int batches = 18;
  int ops_per_batch = 48;
  std::uint64_t workload_seed = 42;
};

SeedResult run_once(xbgas::MachineConfig config, const BenchParams& params,
                    const xbgas::CliArgs& args, bool observe) {
  const int n_pes = config.n_pes;
  xbgas::serving_counters_reset();

  struct PerRank {
    std::vector<std::uint64_t> lat[kNumPhases];
    std::uint64_t req[kNumPhases] = {0, 0, 0};
    std::uint64_t fail[kNumPhases] = {0, 0, 0};
    std::uint64_t span[kNumPhases] = {0, 0, 0};
    bool books = false;
    bool finished = false;
  };
  std::vector<PerRank> per(static_cast<std::size_t>(n_pes));

  xbgas::Machine machine(config);
  const auto body = [&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    xbgas::KvStore store(params.serving);
    xbgas::ServingClient client(store, params.serving);
    xbgas::ServingTraffic traffic(params.workload_seed, pe.rank(),
                                  params.serving.n_keys, params.mix);
    PerRank& mine = per[static_cast<std::size_t>(pe.rank())];
    int phase = 0;
    int during_left = 0;
    std::uint64_t t_phase_start = pe.clock().cycles();
    for (int b = 0; b < params.batches; ++b) {
      for (int i = 0; i < params.ops_per_batch; ++i) {
        const xbgas::ServingOutcome out = client.execute(traffic.next());
        ++mine.req[phase];
        if (out.served) {
          mine.lat[phase].push_back(out.latency_cycles);
        } else {
          ++mine.fail[phase];
        }
      }
      const std::uint64_t t_bar = pe.clock().cycles();
      if (client.end_batch()) {
        // Failover(s) inside this barrier: the current phase ends where the
        // failing barrier began, and "during" — which absorbs the recovery
        // pause plus the first shrunken-roster batch — starts there.
        mine.span[phase] += t_bar - t_phase_start;
        phase = 1;
        t_phase_start = t_bar;
        during_left = 1;
      } else if (phase == 1 && --during_left <= 0) {
        const std::uint64_t now = pe.clock().cycles();
        mine.span[1] += now - t_phase_start;
        phase = 2;
        t_phase_start = now;
      }
    }
    mine.span[phase] += pe.clock().cycles() - t_phase_start;
    mine.books = client.counters().books_balance();
    client.finish();
    mine.finished = true;
    // No xbrtime_close(): after a death the world barrier stays poisoned.
  };

  SeedResult res;
  res.region_ok = true;
  try {
    machine.run(body);
  } catch (const xbgas::SpmdRegionError& e) {
    res.region_ok = false;
    std::printf("unrecovered region: %s\n", e.what());
  }

  const xbgas::CounterRegistry counters = xbgas::collect_counters(machine);
  res.kills = counters.get("fault.injected.kills").value();
  res.shrinks = counters.get("recovery.shrinks").value();
  res.restores = counters.get("recovery.restores").value();
  res.pes_alive = machine.n_alive();
  res.totals = xbgas::serving_counters_snapshot();

  bool survivor_books = true;
  for (int r = 0; r < n_pes; ++r) {
    const PerRank& pr = per[static_cast<std::size_t>(r)];
    if (!machine.alive(r)) continue;
    survivor_books = survivor_books && pr.finished && pr.books;
    for (int ph = 0; ph < kNumPhases; ++ph) {
      res.phases[ph].requests += pr.req[ph];
      res.phases[ph].failed += pr.fail[ph];
      res.phases[ph].span = std::max(res.phases[ph].span, pr.span[ph]);
      res.phases[ph].latencies.insert(res.phases[ph].latencies.end(),
                                      pr.lat[ph].begin(), pr.lat[ph].end());
    }
  }
  for (int ph = 0; ph < kNumPhases; ++ph) {
    std::sort(res.phases[ph].latencies.begin(),
              res.phases[ph].latencies.end());
  }

  const bool deaths_expected = !config.fault.kills.empty();
  res.books_ok = res.region_ok && survivor_books &&
                 res.totals.books_balance() &&
                 machine.n_alive() == n_pes - static_cast<int>(res.kills) &&
                 machine.failed_ranks().size() == res.kills;
  res.recovered = res.region_ok && res.kills >= 1 && res.shrinks >= 1 &&
                  res.restores >= 1 && res.totals.failovers >= 1;
  if (deaths_expected) {
    const double pre = res.phases[0].throughput_per_mcycle();
    const double post = res.phases[2].throughput_per_mcycle();
    res.tput_ok = pre > 0.0 && post >= 0.5 * pre;
  } else {
    res.tput_ok = true;
  }
  if (!res.ok(deaths_expected)) {
    std::printf("%s\n", machine.health().c_str());
  }
  if (observe) xbgas::emit_observability(machine, args);
  return res;
}

void print_result(const std::string& label, const SeedResult& r, int n_pes,
                  bool expect_kills) {
  std::printf(
      "%s  kills %llu  failovers %llu  alive %d/%d  req %llu  served %llu  "
      "failed %llu  retried %llu  hedged %llu  redirected %llu  "
      "replayed %llu  failfast %llu  %s\n",
      label.c_str(), static_cast<unsigned long long>(r.kills),
      static_cast<unsigned long long>(r.totals.failovers), r.pes_alive,
      n_pes, static_cast<unsigned long long>(r.totals.requests),
      static_cast<unsigned long long>(r.totals.served),
      static_cast<unsigned long long>(r.totals.failed),
      static_cast<unsigned long long>(r.totals.requests_retried),
      static_cast<unsigned long long>(r.totals.hedges),
      static_cast<unsigned long long>(r.totals.redirected),
      static_cast<unsigned long long>(r.totals.replayed),
      static_cast<unsigned long long>(r.totals.failed_fast),
      r.ok(expect_kills) ? "OK" : "FAIL");
  for (int ph = 0; ph < kNumPhases; ++ph) {
    const PhaseAgg& p = r.phases[ph];
    if (p.requests == 0) continue;
    std::printf(
        "    %-6s  req %-6llu  tput %8.1f ops/Mcycle  p50 %-6llu  "
        "p99 %-6llu  p999 %llu\n",
        kPhaseNames[ph], static_cast<unsigned long long>(p.requests),
        p.throughput_per_mcycle(),
        static_cast<unsigned long long>(p.percentile(0.50)),
        static_cast<unsigned long long>(p.percentile(0.99)),
        static_cast<unsigned long long>(p.percentile(0.999)));
  }
}

void write_json(std::FILE* f, const BenchParams& params, int n_pes,
                const std::vector<std::pair<std::uint64_t, SeedResult>>& runs,
                const std::vector<bool>& deterministic, bool all_ok) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serving\",\n");
  std::fprintf(f, "  \"n_pes\": %d,\n", n_pes);
  std::fprintf(f, "  \"batches\": %d,\n", params.batches);
  std::fprintf(f, "  \"ops_per_batch\": %d,\n", params.ops_per_batch);
  std::fprintf(f, "  \"n_keys\": %zu,\n", params.serving.n_keys);
  std::fprintf(f, "  \"zipf_s\": %.3f,\n", params.mix.zipf_s);
  std::fprintf(f, "  \"put_pct\": %d,\n", params.mix.put_pct);
  std::fprintf(f, "  \"incr_pct\": %d,\n", params.mix.incr_pct);
  std::fprintf(f, "  \"replicate\": %s,\n",
               params.serving.replicate ? "true" : "false");
  std::fprintf(f, "  \"policy\": \"%s\",\n",
               xbgas::inflight_policy_name(params.serving.policy));
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SeedResult& r = runs[i].second;
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"seed\": %llu,\n",
                 static_cast<unsigned long long>(runs[i].first));
    std::fprintf(f, "      \"plan\": \"%s\",\n", r.plan.c_str());
    std::fprintf(f, "      \"kills\": %llu,\n",
                 static_cast<unsigned long long>(r.kills));
    std::fprintf(f, "      \"failovers\": %llu,\n",
                 static_cast<unsigned long long>(r.totals.failovers));
    std::fprintf(f, "      \"recovered\": %s,\n",
                 r.recovered ? "true" : "false");
    std::fprintf(f, "      \"deterministic\": %s,\n",
                 (i < deterministic.size() && deterministic[i]) ? "true"
                                                                : "false");
    std::fprintf(
        f,
        "      \"accounting\": {\"requests\": %llu, \"served\": %llu, "
        "\"failed\": %llu, \"retries\": %llu, \"requests_retried\": %llu, "
        "\"attempt_timeouts\": %llu, \"hedges\": %llu, "
        "\"redirected\": %llu, \"replica_skips\": %llu, "
        "\"replayed\": %llu, \"failed_fast\": %llu, "
        "\"rebalanced_keys\": %llu},\n",
        static_cast<unsigned long long>(r.totals.requests),
        static_cast<unsigned long long>(r.totals.served),
        static_cast<unsigned long long>(r.totals.failed),
        static_cast<unsigned long long>(r.totals.retries),
        static_cast<unsigned long long>(r.totals.requests_retried),
        static_cast<unsigned long long>(r.totals.attempt_timeouts),
        static_cast<unsigned long long>(r.totals.hedges),
        static_cast<unsigned long long>(r.totals.redirected),
        static_cast<unsigned long long>(r.totals.replica_skips),
        static_cast<unsigned long long>(r.totals.replayed),
        static_cast<unsigned long long>(r.totals.failed_fast),
        static_cast<unsigned long long>(r.totals.rebalanced_keys));
    std::fprintf(f, "      \"phases\": {\n");
    for (int ph = 0; ph < kNumPhases; ++ph) {
      const PhaseAgg& p = r.phases[ph];
      std::fprintf(
          f,
          "        \"%s\": {\"requests\": %llu, \"failed\": %llu, "
          "\"span_cycles\": %llu, \"throughput_ops_per_mcycle\": %.1f, "
          "\"p50_cycles\": %llu, \"p99_cycles\": %llu, "
          "\"p999_cycles\": %llu}%s\n",
          kPhaseNames[ph], static_cast<unsigned long long>(p.requests),
          static_cast<unsigned long long>(p.failed),
          static_cast<unsigned long long>(p.span),
          p.throughput_per_mcycle(),
          static_cast<unsigned long long>(p.percentile(0.50)),
          static_cast<unsigned long long>(p.percentile(0.99)),
          static_cast<unsigned long long>(p.percentile(0.999)),
          ph + 1 < kNumPhases ? "," : "");
    }
    std::fprintf(f, "      },\n");
    const double pre = r.phases[0].throughput_per_mcycle();
    const double post = r.phases[2].throughput_per_mcycle();
    std::fprintf(f, "      \"post_over_pre_throughput\": %.3f\n",
                 pre > 0.0 ? post / pre : 0.0);
    std::fprintf(f, "    }%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"all_ok\": %s\n", all_ok ? "true" : "false");
  std::fprintf(f, "}\n");
}

std::string plan_string(const std::vector<xbgas::KillSpec>& kills) {
  std::string plan;
  for (const xbgas::KillSpec& k : kills) {
    const char* site = k.site == xbgas::KillSite::kBarrier ? "barrier"
                       : k.site == xbgas::KillSite::kRma   ? "rma"
                                                           : "agree";
    plan += (plan.empty() ? "" : ",") + std::to_string(k.rank) + ":" + site +
            ":" + std::to_string(k.at);
  }
  return plan;
}

/// Default tail-fault mix when the user injected nothing: drops frequent
/// enough (vs the machine's per-transfer retry budget) that exhaustion —
/// i.e. a failed serving attempt — actually happens, delays long enough to
/// overrun the attempt budget and arm hedges.
void apply_default_faults(xbgas::MachineConfig& config) {
  xbgas::FaultConfig& fc = config.fault;
  if (fc.rma_drop_prob > 0.0 || fc.rma_delay_prob > 0.0 ||
      fc.rma_bitflip_prob > 0.0 || fc.amo_drop_prob > 0.0 ||
      fc.amo_delay_prob > 0.0) {
    return;  // the user configured faults; leave them alone
  }
  fc.rma_drop_prob = 0.08;
  fc.amo_drop_prob = 0.08;
  fc.rma_delay_prob = 0.05;
  fc.amo_delay_prob = 0.05;
  fc.delay_cycles = 6000;
  fc.max_rma_retries = 1;
}

}  // namespace

constexpr std::string_view kFlags[] = {
    "attempt-timeout", "batches", "checkpoint-every", "hedge-after",
    "incr-pct", "json", "keys", "no-replicate", "op-timeout", "ops-per-batch",
    "pes", "policy", "put-pct", "seed-base", "seeds", "serving-retries",
    "stripes", "workload-seed", "zipf-s",
};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const int n_pes = static_cast<int>(args.get_int("pes", 12));
  const int n_seeds = static_cast<int>(args.get_int("seeds", 0));
  const auto seed_base =
      static_cast<std::uint64_t>(args.get_int("seed-base", 1));

  BenchParams params;
  params.batches = static_cast<int>(args.get_int("batches", 18));
  params.ops_per_batch =
      static_cast<int>(args.get_int("ops-per-batch", 48));
  params.workload_seed =
      static_cast<std::uint64_t>(args.get_int("workload-seed", 42));
  params.serving.n_keys =
      static_cast<std::size_t>(args.get_int("keys", 2048));
  params.serving.hot_stripes =
      static_cast<std::size_t>(args.get_int("stripes", 64));
  params.serving.replicate = !args.has("no-replicate");
  params.serving.policy =
      xbgas::parse_inflight_policy(args.get("policy", "replay"));
  params.serving.checkpoint_every =
      static_cast<int>(args.get_int("checkpoint-every", 4));
  params.serving.op_timeout_cycles =
      static_cast<std::uint64_t>(args.get_int("op-timeout", 400000));
  params.serving.attempt_timeout_cycles =
      static_cast<std::uint64_t>(args.get_int("attempt-timeout", 4000));
  params.serving.max_request_retries =
      static_cast<int>(args.get_int("serving-retries", 3));
  params.serving.hedge_after =
      static_cast<int>(args.get_int("hedge-after", 1));
  params.mix.put_pct = static_cast<int>(args.get_int("put-pct", 20));
  params.mix.incr_pct = static_cast<int>(args.get_int("incr-pct", 10));
  params.mix.zipf_s = args.get_double("zipf-s", 0.99);
  xbgas::validate_serving_config(params.serving);

  std::printf(
      "== Serving chaos soak: sharded KV under PE kills (%d PEs, %d batches "
      "x %d ops, %zu keys, zipf %.2f, policy %s) ==\n",
      n_pes, params.batches, params.ops_per_batch, params.serving.n_keys,
      params.mix.zipf_s,
      xbgas::inflight_policy_name(params.serving.policy));

  std::vector<std::pair<std::uint64_t, SeedResult>> runs;
  std::vector<bool> deterministic;
  bool ok = true;

  if (n_seeds > 0) {
    for (int i = 0; i < n_seeds; ++i) {
      const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
      xbgas::MachineConfig config =
          xbgas::machine_config_from_cli(args, n_pes);
      apply_default_faults(config);
      config.fault.seed = seed;
      config.fault.kills =
          derive_kills(seed, n_pes, params.batches, params.ops_per_batch);
      BenchParams seed_params = params;
      seed_params.workload_seed = seed;

      SeedResult r = run_once(config, seed_params, args, /*observe=*/false);
      r.plan = plan_string(config.fault.kills);
      // Rerun the identical seed: the accounting totals must be
      // bit-identical regardless of host scheduling.
      const SeedResult r2 =
          run_once(config, seed_params, args, /*observe=*/false);
      const bool det =
          accounting_key(r.totals) == accounting_key(r2.totals);
      deterministic.push_back(det);
      if (!det) {
        std::printf("seed %llu: NONDETERMINISTIC accounting across reruns\n",
                    static_cast<unsigned long long>(seed));
      }
      ok = ok && r.ok(/*expect_kills=*/true) && det;
      print_result("seed " + std::to_string(seed) + "  plan " + r.plan, r,
                   n_pes, /*expect_kills=*/true);
      runs.emplace_back(seed, std::move(r));
    }
  } else {
    xbgas::MachineConfig config =
        xbgas::machine_config_from_cli(args, n_pes);
    apply_default_faults(config);
    const bool expect_kills = !config.fault.kills.empty();
    SeedResult r = run_once(config, params, args, /*observe=*/true);
    r.plan = plan_string(config.fault.kills);
    deterministic.push_back(true);
    ok = ok && r.ok(expect_kills);
    print_result("scripted  plan " + (r.plan.empty() ? "none" : r.plan), r,
                 n_pes, expect_kills);
    runs.emplace_back(config.fault.seed, std::move(r));
  }

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", json_path.c_str());
      return 1;
    }
    write_json(f, params, n_pes, runs, deterministic, ok);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!ok) {
    std::printf("bench_serving: FAILED\n");
    return 1;
  }
  std::printf(
      "bench_serving: all runs recovered, books balanced, deterministic\n");
  return 0;
}
