#pragma once

// Team — collectives over a subset of PEs (paper §7 future work:
// "integration of collective functionality between a subset of PEs").
//
// A team is an ascending set of world ranks plus an epoch. Two constructors
// build one:
//
//  * Team(start, stride, size) follows the OpenSHMEM active-set convention:
//    the PEs { start, start + stride, ..., start + (size-1) * stride }, in
//    epoch 0.
//  * Team(members, epoch) takes an arbitrary roster. xbr_team_shrink
//    (shrink.hpp) builds survivor teams this way, from the roster and epoch
//    of the agreement that formed them; team rank r is the r-th smallest
//    member.
//
// Every member constructs the Team with identical arguments (SPMD
// discipline); the constructor rendezvouses members on the team's shared
// barrier, which Machine::team_barrier hands out and registers with the
// Machine, so a crashing PE poisons it rather than deadlocking teammates.
//
// barrier() is a full fence, like the world barrier: the write combiner
// flushes and all nonblocking traffic completes before the rendezvous. Team
// barriers synchronize member clocks (max + modeled barrier cost) but
// deliberately do NOT reconcile the global fabric phase — that stays tied
// to world barriers so disjoint teams don't consume each other's traffic.

#include <cstdint>
#include <memory>
#include <vector>

#include "collectives/comm.hpp"
#include "machine/barrier.hpp"

namespace xbgas {

class Machine;

class Team final : public Communicator {
 public:
  /// Collective over the active set: each member constructs the Team with
  /// the same (start, stride, size). Throws if the calling PE is not a
  /// member or the active set does not fit in the world.
  Team(int start, int stride, int size);

  /// Collective over `members` (ascending world ranks): every member
  /// constructs with the identical (members, epoch) pair. Throws if the
  /// roster is empty or unsorted, or the calling PE is not on it.
  Team(std::vector<int> members, std::uint64_t epoch);

  ~Team() override;

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  int n_pes() const override { return static_cast<int>(members_.size()); }
  int rank() const override { return my_rank_; }
  int world_rank(int r) const override;
  void barrier() override;

  const std::vector<int>& members() const { return members_; }
  std::uint64_t epoch() const { return epoch_; }

  /// True if world rank `wr` belongs to this team.
  bool contains_world_rank(int wr) const;

  /// Poison this team's barrier with a generic "revoked" cause (the ULFM
  /// MPI_Comm_revoke analogue): members blocked in — or later arriving at —
  /// the team barrier throw plain Error, distinguishable from a PE death.
  void revoke();

 private:
  std::vector<int> members_;
  std::uint64_t epoch_;
  int my_rank_ = 0;
  Machine* machine_ = nullptr;
  std::shared_ptr<ClockSyncBarrier> barrier_;
};

}  // namespace xbgas
