#include "collectives/shrink.hpp"

#include "collectives/agree.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "fault/roster.hpp"
#include "machine/machine.hpp"
#include "trace/event.hpp"
#include "xbrtime/nbi.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {

std::unique_ptr<SurvivorTeam> xbr_team_shrink(Communicator& parent) {
  PeContext& ctx = xbrtime_ctx();
  Machine& machine = ctx.machine();

  std::vector<int> expected(static_cast<std::size_t>(parent.n_pes()));
  for (int r = 0; r < parent.n_pes(); ++r) {
    expected[static_cast<std::size_t>(r)] = parent.world_rank(r);
  }

  for (;;) {
    // The death that brought us here may have interrupted a collective
    // mid-flight: discard whatever partial non-blocking/staging state this
    // survivor still carries so every member re-enters symmetric. Buffered
    // puts may target a dead or cut-off peer; the new team's first barrier
    // is a full fence and must find nothing stale to flush.
    detail::nb_discard_all(ctx);
    xbrtime_stage_reset();

    const AgreeResult ag = detail::agree_over_world_ranks(expected, ~0ull);
    expected = ag.roster;
    try {
      auto team = std::make_unique<Team>(ag.roster, ag.epoch);
      if (team->rank() == 0) {
        machine.recovery().counters().shrinks.fetch_add(1);
      }
      ctx.trace().record(EventKind::kRecovery, -1,
                         static_cast<std::uint64_t>(RecoveryOp::kShrink),
                         ag.roster.size());
      return team;
    } catch (const PeFailedError& e) {
      // Another member died while the team was forming; agree again over
      // the smaller set. Termination: every retry removes >= 1 rank.
      XBGAS_LOG_DEBUG("xbr_team_shrink retry on PE %d: %s", ctx.rank(),
                      e.what());
    }
  }
}

std::unique_ptr<SurvivorTeam> xbr_team_shrink() {
  return xbr_team_shrink(world_comm());
}

void xbr_team_revoke(Communicator& comm) {
  auto* team = dynamic_cast<Team*>(&comm);
  if (team == nullptr) {
    throw Error("xbr_team_revoke: only team communicators can be revoked");
  }
  team->revoke();
}

}  // namespace xbgas
