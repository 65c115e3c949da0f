#pragma once

// SurvivorTeam / xbr_team_shrink / xbr_team_revoke — the ULFM-style
// shrink-and-continue layer (docs/RESILIENCE.md).
//
// When a PE dies, every barrier is poisoned and survivors unwind with
// PeFailedError. Instead of letting the region fail, a survivor catches the
// error and calls xbr_team_shrink(parent): an xbr_agree over the parent's
// members produces the survivor roster, and every survivor constructs the
// same Team(roster, epoch) — a Communicator over exactly the live ranks,
// whose rendezvous barrier (Machine::team_barrier) is born *clean* (the
// agreement acknowledged the death, so Machine::register_barrier no longer
// birth-poisons). Collectives, policy dispatch, and checkpoint/restore all
// run unchanged over the new team. If another PE dies while the team is
// being established, the constructor's rendezvous throws PeFailedError and
// xbr_team_shrink loops: it re-agrees over the smaller set until a team
// stands.
//
// xbr_team_revoke poisons a team's barrier with a generic "revoked" cause —
// the ULFM MPI_Comm_revoke analogue: current and future waiters throw plain
// Error (not PeFailedError), so revocation is never mistaken for a death.

#include <memory>

#include "collectives/comm.hpp"
#include "collectives/team.hpp"

namespace xbgas {

/// A survivor team is a Team over the roster an agreement produced, in that
/// agreement's epoch (team.hpp). The alias keeps the recovery API's name.
using SurvivorTeam = Team;

/// Shrink `parent` to its survivors. Called by every surviving member of
/// `parent` (typically from a PeFailedError handler); returns the same
/// team on each. Before agreeing it discards, unsent, this survivor's
/// buffered write-combined puts, nonblocking requests and completion
/// horizon (they may target a dead or cut-off peer, and the new team's
/// first barrier is a full fence), and resets its collective staging stack
/// (interrupted collectives may have left it asymmetric). Retries the
/// agreement if yet another member dies during team establishment.
std::unique_ptr<SurvivorTeam> xbr_team_shrink(Communicator& parent);
std::unique_ptr<SurvivorTeam> xbr_team_shrink();

/// Revoke a team: every member waiting on (or later entering) its barrier
/// throws Error whose message names the revoking rank and says "revoked".
/// Throws Error for any communicator that is not a Team (the world barrier
/// cannot be revoked).
void xbr_team_revoke(Communicator& comm);

}  // namespace xbgas
