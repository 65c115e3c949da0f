// Partition-tolerance chaos soak (docs/RESILIENCE.md): drive deterministic
// Zipfian serving traffic while the fault plan scripts *persistent link
// faults* — single dead links and 2-way network partitions — mid-traffic.
// Retries exhaust against the dead links, escalate as PeUnreachableError,
// and feed the suspect -> agree -> shrink machinery: the majority component
// evicts the unreachable ranks by quorum and keeps serving; minority ranks
// unwind with PartitionedError. Exits nonzero unless every seeded run
//
//   * recovers      — unreachability was observed, an agreement fired, and
//                     the machine shrank (alive < world);
//   * holds quorum  — the surviving component is a strict majority, and for
//                     partition plans the failed set is exactly the scripted
//                     minority (split-brain safety: nobody on the majority
//                     side is ever evicted by a minority verdict);
//   * makes progress— every survivor finishes all post-split batches, its
//                     books balance (requests == served + failed), the
//                     aggregate ledger balances, and a golden allreduce over
//                     the survivor team verifies against the closed form;
//   * replays       — rerunning the identical seed reproduces bit-identical
//                     accounting (serving ledger + eviction set + agreement
//                     and unreachability counts).
//
//   Soak:      bench_partition --pes 64 --seeds 6 [--seed-base 1]
//   Scripted:  bench_partition --pes 64 --fault-partition 48-63@200000
//   JSON:      add --json BENCH_partition.json
//
//   --pes N            PEs per machine (default 64; the soak is sized for
//                      64-256)
//   --batches N        request batches per PE (default 12)
//   --ops-per-batch N  requests per batch per PE (default 32)
//   --keys N           keys in the table (default 2048)
//   --stripes N        hot-counter stripes (default 64)
//   --put-pct / --incr-pct / --zipf-s   traffic mix (defaults 20/10/0.99)
//   --seeds N          soak mode: N seeded plans (odd seeds partition a
//                      contiguous minority group, even seeds kill 2-4
//                      point-to-point links), each run twice
//   --seed-base N      first soak seed (default 1)
//   --json PATH        write the report as JSON
//
// Standard machine/fault flags (benchlib/options.hpp) override everything;
// with no --seeds and no scripted faults the bench runs one clean baseline.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/options.hpp"
#include "benchlib/zipf.hpp"
#include "collectives/policy.hpp"
#include "common/cli.hpp"
#include "machine/machine.hpp"
#include "serving/client.hpp"
#include "trace/collect.hpp"
#include "xbrtime/runtime.hpp"

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Activation window: late enough that the symmetric setup (init + store
/// construction + baseline checkpoint) is over and a pre-split traffic
/// phase exists, early enough that most of the batch schedule still runs on
/// the shrunken roster.
std::uint64_t derive_at(std::uint64_t& s) { return 150'000 + splitmix64(s) % 350'000; }

/// Odd seeds: one 2-way partition splitting off a contiguous minority group
/// of n/8 .. n/4 ranks. Even seeds: 2-4 distinct point-to-point links
/// scripted down. All faults are persistent (no scripted heal) — this soak
/// is about eviction, not absorption; healing is covered by the unit tests.
void derive_plan(std::uint64_t seed, int n_pes, xbgas::FaultConfig& fc,
                 std::string& plan, std::vector<int>& minority) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  const auto n = static_cast<std::uint64_t>(n_pes);
  if (seed % 2 == 1) {
    const auto size = static_cast<int>(n / 8 + splitmix64(s) % (n / 8 + 1));
    const int lo = static_cast<int>(splitmix64(s) %
                                    static_cast<std::uint64_t>(n_pes - size + 1));
    xbgas::PartitionSpec p;
    p.lo = lo;
    p.hi = lo + size - 1;
    p.at = derive_at(s);
    fc.partitions.push_back(p);
    for (int r = p.lo; r <= p.hi; ++r) minority.push_back(r);
    plan = "partition " + std::to_string(p.lo) + "-" + std::to_string(p.hi);
    plan += "@" + std::to_string(p.at);
  } else {
    const int n_links = 2 + static_cast<int>(splitmix64(s) % 3);
    for (int i = 0; i < n_links; ++i) {
      xbgas::LinkSpec l;
      for (;;) {
        l.a = static_cast<int>(splitmix64(s) % n);
        l.b = static_cast<int>(splitmix64(s) % n);
        if (l.a == l.b) continue;
        if (l.a > l.b) std::swap(l.a, l.b);
        bool fresh = true;
        for (const xbgas::LinkSpec& seen : fc.links) {
          fresh &= seen.a != l.a || seen.b != l.b;
        }
        if (fresh) break;
      }
      l.mode = xbgas::LinkFaultMode::kDown;
      l.at = derive_at(s);
      fc.links.push_back(l);
      plan += plan.empty() ? "link " : ",";
      plan += std::to_string(l.a) + "-" + std::to_string(l.b);
      plan += "@" + std::to_string(l.at);
    }
  }
}

struct SeedResult {
  bool region_ok = false;
  bool recovered = false;  ///< unreachability seen, agreement fired, shrank
  bool quorum_ok = false;  ///< majority survived; partition evicted exactly
                           ///< the scripted minority
  bool progress_ok = false;  ///< survivors finished, books + golden reduce
  std::uint64_t unreachable = 0;
  std::uint64_t agreements = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t link_down_drops = 0;
  int pes_alive = 0;
  std::vector<int> evicted;
  xbgas::ServingCounters totals;
  std::string plan;

  bool ok(bool expect_faults) const {
    return region_ok && progress_ok &&
           (!expect_faults || (recovered && quorum_ok));
  }
};

/// Everything that must replay bit-identically when the seed is rerun.
struct AccountingKey {
  std::uint64_t v[8];
  std::vector<int> evicted;
  bool operator==(const AccountingKey& o) const {
    for (int i = 0; i < 8; ++i) {
      if (v[i] != o.v[i]) return false;
    }
    return evicted == o.evicted;
  }
};

AccountingKey accounting_key(const SeedResult& r) {
  return AccountingKey{{r.totals.requests, r.totals.served, r.totals.failed,
                        r.totals.retries, r.totals.failovers, r.unreachable,
                        r.agreements, r.shrinks},
                       r.evicted};
}

struct BenchParams {
  xbgas::ServingConfig serving;
  xbgas::ServingMix mix;
  int batches = 12;
  int ops_per_batch = 32;
  std::uint64_t workload_seed = 42;
};

SeedResult run_once(xbgas::MachineConfig config, const BenchParams& params,
                    const std::vector<int>& minority) {
  const int n_pes = config.n_pes;
  xbgas::serving_counters_reset();

  struct PerRank {
    std::uint64_t post_requests = 0;  ///< requests after the first failover
    bool books = false;
    bool reduced = false;  ///< golden allreduce over the final team verified
    bool finished = false;
  };
  std::vector<PerRank> per(static_cast<std::size_t>(n_pes));

  xbgas::Machine machine(config);
  const auto body = [&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    auto* red = static_cast<std::uint64_t*>(
        xbgas::xbrtime_malloc(2 * sizeof(std::uint64_t)));
    xbgas::KvStore store(params.serving);
    xbgas::ServingClient client(store, params.serving);
    xbgas::ServingTraffic traffic(params.workload_seed, pe.rank(),
                                  params.serving.n_keys, params.mix);
    PerRank& mine = per[static_cast<std::size_t>(pe.rank())];
    for (int b = 0; b < params.batches; ++b) {
      // A failover can fire inside execute() (first-hand escalation) or
      // inside end_batch() (poisoned rendezvous); the ledger sees both.
      const bool post = client.counters().failovers > 0;
      for (int i = 0; i < params.ops_per_batch; ++i) {
        (void)client.execute(traffic.next());
        if (post) ++mine.post_requests;
      }
      (void)client.end_batch();
    }
    mine.books = client.counters().books_balance();

    // Quorum-side progress in the strongest form: a golden allreduce over
    // whatever roster survived, verified against the closed form.
    red[0] = static_cast<std::uint64_t>(pe.rank() + 1);
    std::uint64_t expect = 0;
    if (client.team() != nullptr) {
      xbgas::dispatch_reduce_all<xbgas::OpSum>(red + 1, red, 1, 1,
                                               *client.team());
      for (const int wr : client.team()->members()) {
        expect += static_cast<std::uint64_t>(wr + 1);
      }
    } else {
      xbgas::dispatch_reduce_all<xbgas::OpSum>(red + 1, red, 1, 1);
      expect = static_cast<std::uint64_t>(n_pes) *
               static_cast<std::uint64_t>(n_pes + 1) / 2;
    }
    mine.reduced = red[1] == expect;

    client.finish();
    mine.finished = true;
    // No xbrtime_close(): after an eviction the world barrier is poisoned.
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
  res.unreachable = counters.get("fault.injected.unreachable").value();
  res.agreements = counters.get("recovery.agreements").value();
  res.shrinks = counters.get("recovery.shrinks").value();
  res.link_down_drops = counters.get("fault.injected.link_down").value();
  res.pes_alive = machine.n_alive();
  res.evicted = machine.failed_ranks();
  res.totals = xbgas::serving_counters_snapshot();

  const bool expect_faults =
      !config.fault.links.empty() || !config.fault.partitions.empty();
  res.recovered = res.region_ok && res.unreachable >= 1 &&
                  res.agreements >= 1 && res.shrinks >= 1 &&
                  res.pes_alive < n_pes;

  // Quorum safety. For a scripted partition the eviction set must be
  // *exactly* the scripted minority: one rank more would mean a minority
  // verdict reached the majority side, one fewer would mean the split was
  // never fully resolved. For point-to-point link plans any eviction must
  // be an endpoint of a scripted-down link.
  res.quorum_ok = res.pes_alive > n_pes / 2;
  if (!minority.empty()) {
    res.quorum_ok = res.quorum_ok && res.evicted == minority;
  } else {
    for (const int r : res.evicted) {
      bool endpoint = false;
      for (const xbgas::LinkSpec& l : config.fault.links) {
        endpoint |= r == l.a || r == l.b;
      }
      res.quorum_ok = res.quorum_ok && endpoint;
    }
  }

  bool survivors_ok = true;
  std::uint64_t post_total = 0;
  for (int r = 0; r < n_pes; ++r) {
    const PerRank& pr = per[static_cast<std::size_t>(r)];
    if (!machine.alive(r)) continue;
    survivors_ok = survivors_ok && pr.finished && pr.books && pr.reduced;
    post_total += pr.post_requests;
  }
  res.progress_ok = res.region_ok && survivors_ok &&
                    res.totals.books_balance() &&
                    (!expect_faults || post_total > 0);
  if (!res.ok(expect_faults)) std::printf("%s\n", machine.health().c_str());
  return res;
}

void print_result(const std::string& label, const SeedResult& r, int n_pes,
                  bool expect_faults) {
  std::string evicted;
  for (const int e : r.evicted) {
    evicted += evicted.empty() ? "" : ",";
    evicted += std::to_string(e);
  }
  std::printf(
      "%s  unreachable %llu  agreements %llu  shrinks %llu  alive %d/%d  "
      "evicted [%s]  req %llu  served %llu  failed %llu  %s\n",
      label.c_str(), static_cast<unsigned long long>(r.unreachable),
      static_cast<unsigned long long>(r.agreements),
      static_cast<unsigned long long>(r.shrinks), r.pes_alive, n_pes,
      evicted.c_str(), static_cast<unsigned long long>(r.totals.requests),
      static_cast<unsigned long long>(r.totals.served),
      static_cast<unsigned long long>(r.totals.failed),
      r.ok(expect_faults) ? "OK" : "FAIL");
}

void write_json(std::FILE* f, const BenchParams& params, int n_pes,
                const std::vector<std::pair<std::uint64_t, SeedResult>>& runs,
                const std::vector<bool>& deterministic, bool all_ok) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"partition\",\n");
  std::fprintf(f, "  \"n_pes\": %d,\n", n_pes);
  std::fprintf(f, "  \"batches\": %d,\n", params.batches);
  std::fprintf(f, "  \"ops_per_batch\": %d,\n", params.ops_per_batch);
  std::fprintf(f, "  \"n_keys\": %zu,\n", params.serving.n_keys);
  std::fprintf(f, "  \"zipf_s\": %.3f,\n", params.mix.zipf_s);
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SeedResult& r = runs[i].second;
    std::string evicted;
    for (const int e : r.evicted) {
      evicted += evicted.empty() ? "" : ",";
      evicted += std::to_string(e);
    }
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"seed\": %llu,\n",
                 static_cast<unsigned long long>(runs[i].first));
    std::fprintf(f, "      \"plan\": \"%s\",\n", r.plan.c_str());
    std::fprintf(f, "      \"unreachable\": %llu,\n",
                 static_cast<unsigned long long>(r.unreachable));
    std::fprintf(f, "      \"agreements\": %llu,\n",
                 static_cast<unsigned long long>(r.agreements));
    std::fprintf(f, "      \"shrinks\": %llu,\n",
                 static_cast<unsigned long long>(r.shrinks));
    std::fprintf(f, "      \"link_down_drops\": %llu,\n",
                 static_cast<unsigned long long>(r.link_down_drops));
    std::fprintf(f, "      \"alive\": %d,\n", r.pes_alive);
    std::fprintf(f, "      \"evicted\": [%s],\n", evicted.c_str());
    std::fprintf(f, "      \"recovered\": %s,\n",
                 r.recovered ? "true" : "false");
    std::fprintf(f, "      \"quorum_ok\": %s,\n",
                 r.quorum_ok ? "true" : "false");
    std::fprintf(f, "      \"progress_ok\": %s,\n",
                 r.progress_ok ? "true" : "false");
    std::fprintf(f, "      \"deterministic\": %s,\n",
                 (i < deterministic.size() && deterministic[i]) ? "true"
                                                                : "false");
    std::fprintf(
        f,
        "      \"accounting\": {\"requests\": %llu, \"served\": %llu, "
        "\"failed\": %llu, \"retries\": %llu, \"failovers\": %llu}\n",
        static_cast<unsigned long long>(r.totals.requests),
        static_cast<unsigned long long>(r.totals.served),
        static_cast<unsigned long long>(r.totals.failed),
        static_cast<unsigned long long>(r.totals.retries),
        static_cast<unsigned long long>(r.totals.failovers));
    std::fprintf(f, "    }%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"all_ok\": %s\n", all_ok ? "true" : "false");
  std::fprintf(f, "}\n");
}

}  // namespace

constexpr std::string_view kFlags[] = {
    "batches", "incr-pct", "json", "keys", "ops-per-batch", "pes", "put-pct",
    "seed-base", "seeds", "stripes", "workload-seed", "zipf-s",
};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {xbgas::kMachineFlags, kFlags});
  const int n_pes = static_cast<int>(args.get_int("pes", 64));
  const int n_seeds = static_cast<int>(args.get_int("seeds", 0));
  const auto seed_base =
      static_cast<std::uint64_t>(args.get_int("seed-base", 1));

  BenchParams params;
  params.batches = static_cast<int>(args.get_int("batches", 12));
  params.ops_per_batch = static_cast<int>(args.get_int("ops-per-batch", 32));
  params.workload_seed =
      static_cast<std::uint64_t>(args.get_int("workload-seed", 42));
  params.serving.n_keys =
      static_cast<std::size_t>(args.get_int("keys", 2048));
  params.serving.hot_stripes =
      static_cast<std::size_t>(args.get_int("stripes", 64));
  params.mix.put_pct = static_cast<int>(args.get_int("put-pct", 20));
  params.mix.incr_pct = static_cast<int>(args.get_int("incr-pct", 10));
  params.mix.zipf_s = args.get_double("zipf-s", 0.99);
  xbgas::validate_serving_config(params.serving);

  std::printf(
      "== Partition chaos soak: persistent link faults and 2-way splits "
      "under serving traffic (%d PEs, %d batches x %d ops, %zu keys) ==\n",
      n_pes, params.batches, params.ops_per_batch, params.serving.n_keys);

  std::vector<std::pair<std::uint64_t, SeedResult>> runs;
  std::vector<bool> deterministic;
  bool ok = true;

  if (n_seeds > 0) {
    for (int i = 0; i < n_seeds; ++i) {
      const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
      xbgas::MachineConfig config =
          xbgas::machine_config_from_cli(args, n_pes);
      config.fault.seed = seed;
      std::string plan;
      std::vector<int> minority;
      derive_plan(seed, n_pes, config.fault, plan, minority);
      BenchParams seed_params = params;
      seed_params.workload_seed = seed;

      SeedResult r = run_once(config, seed_params, minority);
      r.plan = plan;
      // Rerun the identical seed: eviction set and every ledger entry must
      // replay bit-identically regardless of host scheduling.
      const SeedResult r2 = run_once(config, seed_params, minority);
      const bool det = accounting_key(r) == accounting_key(r2);
      deterministic.push_back(det);
      if (!det) {
        std::printf("seed %llu: NONDETERMINISTIC accounting across reruns\n",
                    static_cast<unsigned long long>(seed));
      }
      ok = ok && r.ok(/*expect_faults=*/true) && det;
      print_result("seed " + std::to_string(seed) + "  plan " + r.plan, r,
                   n_pes, /*expect_faults=*/true);
      runs.emplace_back(seed, std::move(r));
    }
  } else {
    xbgas::MachineConfig config =
        xbgas::machine_config_from_cli(args, n_pes);
    const bool expect_faults =
        !config.fault.links.empty() || !config.fault.partitions.empty();
    // A scripted --fault-partition names the minority explicitly.
    std::vector<int> minority;
    for (const xbgas::PartitionSpec& p : config.fault.partitions) {
      for (int r = p.lo; r <= p.hi; ++r) minority.push_back(r);
    }
    std::sort(minority.begin(), minority.end());
    SeedResult r = run_once(config, params, minority);
    r.plan = expect_faults ? "scripted" : "none";
    deterministic.push_back(true);
    ok = ok && r.ok(expect_faults);
    print_result("scripted  plan " + r.plan, r, n_pes, expect_faults);
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
    std::printf("bench_partition: FAILED\n");
    return 1;
  }
  std::printf(
      "bench_partition: every split evicted by quorum, survivors verified, "
      "deterministic\n");
  return 0;
}
