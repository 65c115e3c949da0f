// Survivor recovery walkthrough (docs/RESILIENCE.md): a PE dies mid-run and
// the job finishes anyway.
//
//   * 8 PEs checkpoint their heap with xbr_checkpoint(),
//   * rank 2 is killed at a barrier by the scripted fault injector,
//   * the survivors catch PeFailedError, agree on who is still alive
//     (xbr_agree, via xbr_team_shrink), and form a 7-PE SurvivorTeam,
//   * xbr_restore() brings every survivor's heap back from the snapshot
//     and re-shards the dead rank's data onto the new team,
//   * a verified allreduce over the shrunken team proves the job can keep
//     computing after the death.
//
// Self-verifying: exits 0 when every survivor recovers and the collective
// matches the roster golden, 1 otherwise.
//
//   ./recover_shrink [--pes 8]

#include <cstdio>
#include <cstring>
#include <vector>

#include "benchlib/options.hpp"
#include "collectives/checkpoint.hpp"
#include "collectives/collectives.hpp"
#include "collectives/policy.hpp"
#include "collectives/shrink.hpp"
#include "common/cli.hpp"
#include "xbrtime/runtime.hpp"

constexpr std::string_view kFlags[] = {"pes"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {xbgas::kMachineFlags, kFlags});
  const int n_pes = static_cast<int>(args.get_int("pes", 8));
  constexpr std::size_t kElems = 32;
  constexpr int kVictim = 2;

  xbgas::MachineConfig config = xbgas::machine_config_from_cli(args, n_pes);
  // Kill rank 2 at its 10th barrier arrival: the first workload barrier
  // after the symmetric setup (init = 3 arrivals, two mallocs = 4,
  // xbr_checkpoint = 2 more).
  config.fault.kills.push_back(
      xbgas::KillSpec{kVictim, xbgas::KillSite::kBarrier, 10});

  xbgas::Machine machine(config);
  std::vector<int> recovered(static_cast<std::size_t>(n_pes), 0);

  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    const int me = pe.rank();
    auto* data = static_cast<long*>(
        xbgas::xbrtime_malloc(kElems * sizeof(long)));
    auto* result = static_cast<long*>(
        xbgas::xbrtime_malloc(kElems * sizeof(long)));
    for (std::size_t i = 0; i < kElems; ++i) {
      data[i] = me * 100 + static_cast<long>(i);
    }

    // Snapshot the heap while everyone is still alive. Each PE's live
    // allocations are copied into the machine's checkpoint store.
    xbgas::xbr_checkpoint();

    try {
      xbgas::xbrtime_barrier();  // rank 2 dies here
      std::printf("PE %d: (unreachable on a poisoned world)\n", me);
    } catch (const xbgas::PeFailedError& e) {
      std::printf("PE %d: saw death of rank %d, shrinking...\n", me,
                  e.failed_rank());

      // Agreement + team formation: every survivor gets the identical
      // roster, and ranks are remapped densely (0..6 on a 7-PE team).
      auto team = xbgas::xbr_team_shrink();

      // Simulate losing the working set in the crash, then restore it.
      std::memset(data, 0, kElems * sizeof(long));
      const xbgas::RestoreReport rep = xbgas::xbr_restore(*team);
      bool ok = true;
      for (std::size_t i = 0; i < kElems; ++i) {
        ok &= data[i] == me * 100 + static_cast<long>(i);
      }
      if (team->rank() == 0) {
        std::printf(
            "PE %d: restored %llu bytes; %zu orphan shard(s) from dead "
            "ranks re-dealt onto the team\n",
            me, static_cast<unsigned long long>(rep.restored_bytes),
            rep.orphans.size());
      }

      // The job goes on: a verified sum-allreduce over the survivors.
      xbgas::dispatch_reduce_all<xbgas::OpSum>(result, data, kElems, 1,
                                               *team);
      long expect = 0;
      for (const int wr : team->members()) {
        expect += wr * 100;  // element 0 of each survivor's data
      }
      ok &= result[0] == expect;
      ok &= !team->contains_world_rank(kVictim);

      recovered[static_cast<std::size_t>(me)] = ok ? 1 : 0;
      std::printf("PE %d: team rank %d/%d, allreduce[0] = %ld (%s)\n", me,
                  team->rank(), team->n_pes(), result[0],
                  ok ? "verified" : "WRONG");
    }
    // No xbrtime_close(): the world barrier stays poisoned after a death;
    // only team-scoped collectives are legal from here on.
  });

  std::printf("%s\n", machine.health().c_str());

  bool all_ok = machine.n_alive() == n_pes - 1;
  for (int r = 0; r < n_pes; ++r) {
    if (r != kVictim) {
      all_ok = all_ok && recovered[static_cast<std::size_t>(r)] == 1;
    }
  }
  std::printf("recover_shrink: %s\n",
              all_ok ? "all survivors recovered" : "FAILED");
  return all_ok ? 0 : 1;
}
