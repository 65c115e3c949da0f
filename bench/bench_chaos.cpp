// Chaos soak harness for the survivor-recovery protocol
// (docs/RESILIENCE.md): run a checkpointed RMA + allreduce workload while
// PEs are killed at scripted or seeded-random points, shrink the team after
// every death, restore the heap, and verify the collective result against
// the roster golden. Exits nonzero on any verification or bookkeeping
// failure, so it slots directly into scripts/check.sh.
//
//   Scripted:  bench_chaos --pes 12 --rounds 4 --fault-kill 3:barrier:11,7:rma:4
//   Soak:      bench_chaos --pes 10 --rounds 4 --seeds 8 [--seed-base 1]
//
//   --pes N          PEs per machine (default 12)
//   --rounds N       verified workload rounds per run (default 6)
//   --elems N        8-byte elements per buffer (default 256)
//   --seeds N        soak mode: run N seeded machines with derived kills
//   --seed-base N    first soak seed (default 1)
//   --fault-kill ... scripted mode: explicit kill list (benchlib flag)
//
// Plus the standard machine/fault/trace flags (benchlib/options.hpp).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "collectives/checkpoint.hpp"
#include "collectives/collectives.hpp"
#include "collectives/policy.hpp"
#include "collectives/shrink.hpp"
#include "common/cli.hpp"
#include "trace/collect.hpp"
#include "xbrtime/rma.hpp"
#include "xbrtime/runtime.hpp"

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// 1-2 kills on distinct ranks, derived deterministically from the seed.
/// Barrier kills land past the symmetric setup (init + 2 mallocs +
/// checkpoint = 9 arrivals) so the survivors always hold their buffers.
std::vector<xbgas::KillSpec> derive_kills(std::uint64_t seed, int n_pes,
                                          int rounds) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
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
    switch (splitmix64(s) % 3) {
      case 0:
        k.site = xbgas::KillSite::kBarrier;
        k.at = 10 + splitmix64(s) %
                        static_cast<std::uint64_t>(
                            static_cast<unsigned>(rounds) + 4u);
        break;
      case 1:
        k.site = xbgas::KillSite::kRma;
        k.at = 1 + splitmix64(s) % 8;
        break;
      default:
        k.site = xbgas::KillSite::kAgree;
        k.at = 1 + splitmix64(s) % 2;
        break;
    }
    kills.push_back(k);
  }
  return kills;
}

std::uint64_t pattern(int rank, std::size_t i) {
  return static_cast<std::uint64_t>(rank) * 1000003 + i;
}

struct RunStats {
  int verify_failures = 0;
  std::uint64_t kills_fired = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t restores = 0;
  int pes_alive = 0;
  bool books_balance = false;
};

/// One machine lifetime: rounds of (remote put + allreduce + barrier) with
/// shrink + restore recovery after every death. Returns the verdict.
RunStats run_once(xbgas::MachineConfig config, int rounds,
                  std::size_t elems, const xbgas::CliArgs& args,
                  bool observe) {
  const int n_pes = config.n_pes;
  xbgas::Machine machine(config);
  std::vector<int> bad(static_cast<std::size_t>(n_pes), 0);
  const auto body = [&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    auto* data = static_cast<std::uint64_t*>(
        xbgas::xbrtime_malloc(elems * sizeof(std::uint64_t)));
    auto* scratch = static_cast<std::uint64_t*>(
        xbgas::xbrtime_malloc(elems * sizeof(std::uint64_t)));
    for (std::size_t i = 0; i < elems; ++i) {
      data[i] = pattern(pe.rank(), i);
    }
    xbgas::xbr_checkpoint();

    const auto me = static_cast<std::size_t>(pe.rank());
    std::unique_ptr<xbgas::SurvivorTeam> team;
    auto recover = [&] {
      for (;;) {
        try {
          team = team ? xbgas::xbr_team_shrink(*team)
                      : xbgas::xbr_team_shrink();
          std::memset(data, 0, elems * sizeof(std::uint64_t));
          xbgas::xbr_restore(*team);
          for (std::size_t i = 0; i < elems; ++i) {
            if (data[i] != pattern(pe.rank(), i)) bad[me] = 1;
          }
          return;
        } catch (const xbgas::PeFailedError&) {
          // Another death interrupted the recovery itself; agree again.
        }
      }
    };

    for (int round = 0; round < rounds; ++round) {
      bool done = false;
      while (!done) {
        try {
          for (std::size_t i = 0; i < elems; ++i) {
            data[i] = static_cast<std::uint64_t>(pe.rank() + 1 + round);
          }
          std::uint64_t expect = 0;
          if (team) {
            xbgas::dispatch_reduce_all<xbgas::OpSum>(scratch, data, elems, 1,
                                                     *team);
            for (const int wr : team->members()) {
              expect += static_cast<std::uint64_t>(wr + 1 + round);
            }
            for (std::size_t i = 0; i < elems; ++i) {
              if (scratch[i] != expect) bad[me] = 1;
            }
            team->barrier();
          } else {
            xbgas::xbr_put(scratch, data, elems, 1,
                           (pe.rank() + 1) % n_pes);
            xbgas::xbrtime_barrier();
            xbgas::dispatch_reduce_all<xbgas::OpSum>(scratch, data, elems,
                                                     1);
            for (int wr = 0; wr < n_pes; ++wr) {
              expect += static_cast<std::uint64_t>(wr + 1 + round);
            }
            for (std::size_t i = 0; i < elems; ++i) {
              if (scratch[i] != expect) bad[me] = 1;
            }
            xbgas::xbrtime_barrier();
          }
          done = true;
        } catch (const xbgas::PeFailedError&) {
          recover();
        }
      }
    }
    // No xbrtime_close(): after a death the world barrier stays poisoned.
  };

  bool region_failed = false;
  try {
    machine.run(body);
  } catch (const xbgas::SpmdRegionError& e) {
    // A kill landed somewhere the harness cannot recover from (e.g. inside
    // the symmetric setup). Report it as a failure, not a crash.
    region_failed = true;
    std::printf("unrecovered region: %s\n", e.what());
  }

  RunStats stats;
  const xbgas::CounterRegistry counters = xbgas::collect_counters(machine);
  stats.kills_fired = counters.get("fault.injected.kills").value();
  stats.shrinks = counters.get("recovery.shrinks").value();
  stats.restores = counters.get("recovery.restores").value();
  stats.pes_alive = machine.n_alive();
  stats.books_balance =
      !region_failed &&
      machine.n_alive() == n_pes - static_cast<int>(stats.kills_fired) &&
      machine.failed_ranks().size() == stats.kills_fired;
  for (int r = 0; r < n_pes; ++r) {
    if (machine.alive(r) && bad[static_cast<std::size_t>(r)] != 0) {
      ++stats.verify_failures;
    }
  }
  if (!stats.books_balance || stats.verify_failures != 0) {
    std::printf("%s\n", machine.health().c_str());
  }
  if (observe) xbgas::emit_observability(machine, args);
  return stats;
}

}  // namespace

constexpr std::string_view kFlags[] = {
    "elems", "pes", "rounds", "seed-base", "seeds",
};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const int n_pes = static_cast<int>(args.get_int("pes", 12));
  const int rounds = static_cast<int>(args.get_int("rounds", 6));
  const auto elems =
      static_cast<std::size_t>(args.get_int("elems", 256));
  const int n_seeds = static_cast<int>(args.get_int("seeds", 0));
  const auto seed_base =
      static_cast<std::uint64_t>(args.get_int("seed-base", 1));

  std::printf("== Chaos soak: survivor recovery under PE kills "
              "(%d PEs, %d rounds, %zu elems) ==\n",
              n_pes, rounds, elems);

  bool ok = true;
  if (n_seeds > 0) {
    // Soak mode: one machine per seed, kills derived from SplitMix64.
    for (int i = 0; i < n_seeds; ++i) {
      const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
      xbgas::MachineConfig config =
          xbgas::machine_config_from_cli(args, n_pes);
      config.fault.kills = derive_kills(seed, n_pes, rounds);
      std::string plan;
      for (const xbgas::KillSpec& k : config.fault.kills) {
        const char* site = k.site == xbgas::KillSite::kBarrier ? "barrier"
                           : k.site == xbgas::KillSite::kRma   ? "rma"
                                                               : "agree";
        plan += (plan.empty() ? "" : ",") + std::to_string(k.rank) + ":" +
                site + ":" + std::to_string(k.at);
      }
      const RunStats s =
          run_once(config, rounds, elems, args, /*observe=*/false);
      const bool seed_ok = s.books_balance && s.verify_failures == 0;
      ok = ok && seed_ok;
      std::printf(
          "seed %llu  plan %-24s  kills %llu  shrinks %llu  restores %llu  "
          "alive %d/%d  %s\n",
          static_cast<unsigned long long>(seed), plan.c_str(),
          static_cast<unsigned long long>(s.kills_fired),
          static_cast<unsigned long long>(s.shrinks),
          static_cast<unsigned long long>(s.restores), s.pes_alive, n_pes,
          seed_ok ? "OK" : "FAIL");
    }
  } else {
    // Scripted mode: the kill plan comes from --fault-kill.
    const xbgas::MachineConfig config =
        xbgas::machine_config_from_cli(args, n_pes);
    const RunStats s =
        run_once(config, rounds, elems, args, /*observe=*/true);
    ok = s.books_balance && s.verify_failures == 0;
    std::printf("kills %llu  shrinks %llu  restores %llu  alive %d/%d  %s\n",
                static_cast<unsigned long long>(s.kills_fired),
                static_cast<unsigned long long>(s.shrinks),
                static_cast<unsigned long long>(s.restores), s.pes_alive,
                n_pes, ok ? "OK" : "FAIL");
  }

  if (!ok) {
    std::printf("bench_chaos: FAILED\n");
    return 1;
  }
  std::printf("bench_chaos: all runs recovered and verified\n");
  return 0;
}
