#include "collectives/shrink.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>

#include "collectives/agree.hpp"
#include "collectives/team.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "fault/injector.hpp"
#include "fault/roster.hpp"
#include "machine/machine.hpp"
#include "trace/event.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {

namespace {

// Same shared-rendezvous-barrier registry pattern as Team (team.cpp), keyed
// by the agreement that produced the roster: members of one shrink wave
// share (machine, epoch, roster) exactly, and a later wave — even over an
// identical roster — gets a fresh barrier because its epoch is larger.
using SurvivorKey =
    std::tuple<std::uint64_t, std::uint64_t, std::vector<int>>;

std::mutex g_registry_mutex;
std::map<SurvivorKey, std::weak_ptr<ClockSyncBarrier>> g_registry;

// A rendezvous that was poisoned must stay poisoned for stragglers. The
// members of one shrink wave reach the SurvivorTeam constructor at wildly
// different times; if the early ones throw on a poisoned rendezvous and
// release the barrier before a late member acquires it, a plain weak_ptr
// registry would hand the late member a *fresh, clean* barrier for the same
// (epoch, roster) — and it would wait forever for peers that already moved
// on to the next agreement. Keys are never reused (the epoch is a strictly
// increasing agreement sequence number), so a tombstone is permanent truth.
std::map<SurvivorKey, BarrierPoison> g_tombstones;

[[noreturn]] void throw_tombstoned(const BarrierPoison& p) {
  if (p.failed_rank >= 0) throw PeFailedError(p.reason, p.failed_rank);
  throw Error(p.reason.empty() ? "survivor team rendezvous was poisoned"
                               : p.reason);
}

std::shared_ptr<ClockSyncBarrier> acquire_barrier(
    Machine& machine, std::uint64_t epoch, const std::vector<int>& members) {
  const SurvivorKey key{machine.instance_id(), epoch, members};
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  if (auto it = g_tombstones.find(key); it != g_tombstones.end()) {
    throw_tombstoned(it->second);
  }
  if (auto it = g_registry.find(key); it != g_registry.end()) {
    if (auto existing = it->second.lock()) return existing;
  }
  const NetCostParams& params = machine.network().params();
  const int size = static_cast<int>(members.size());
  auto* raw = new ClockSyncBarrier(
      size,
      [params, size](std::uint64_t max_cycles, int) {
        // Like team barriers: no global fabric-phase reconcile, just the
        // modeled log2(size) exchange (see team.hpp).
        return max_cycles + params.barrier_cycles(size);
      },
      machine.config().fault.barrier_timeout_ms, members);
  if (machine.sanitizer().conflicts_enabled()) {
    raw->set_all_arrived_hook([&machine, members] {
      machine.sanitizer().on_barrier_all_arrived(members);
    });
  }
  std::shared_ptr<ClockSyncBarrier> barrier(
      raw, [key, &machine](ClockSyncBarrier* b) {
        machine.unregister_barrier(b);
        {
          const std::lock_guard<std::mutex> inner(g_registry_mutex);
          // Evict only a dead entry: a member may already have founded a
          // fresh barrier under this key (see team.cpp).
          if (auto it = g_registry.find(key);
              it != g_registry.end() && it->second.expired()) {
            g_registry.erase(it);
          }
          // Last member let go of a poisoned rendezvous: leave a tombstone
          // so any straggler of this wave throws instead of founding a
          // fresh barrier nobody else will ever arrive at.
          if (b->poisoned()) g_tombstones[key] = b->poison_info();
        }
        delete b;
      });
  machine.register_barrier(barrier.get());
  g_registry[key] = barrier;
  return barrier;
}

}  // namespace

SurvivorTeam::SurvivorTeam(std::vector<int> members, std::uint64_t epoch)
    : members_(std::move(members)), epoch_(epoch) {
  PeContext& ctx = xbrtime_ctx();
  machine_ = &ctx.machine();

  XBGAS_CHECK(!members_.empty(), "survivor team must have >= 1 member");
  XBGAS_CHECK(std::is_sorted(members_.begin(), members_.end()),
              "survivor roster must be ascending");
  const auto it =
      std::lower_bound(members_.begin(), members_.end(), ctx.rank());
  XBGAS_CHECK(it != members_.end() && *it == ctx.rank(),
              "calling PE is not a member of this survivor team");
  my_rank_ = static_cast<int>(it - members_.begin());

  barrier_ = acquire_barrier(*machine_, epoch_, members_);
  barrier();  // rendezvous: every member holds the barrier before any use
}

SurvivorTeam::~SurvivorTeam() = default;

int SurvivorTeam::world_rank(int r) const {
  XBGAS_CHECK(r >= 0 && r < n_pes(), "team rank out of range");
  return members_[static_cast<std::size_t>(r)];
}

bool SurvivorTeam::contains_world_rank(int wr) const {
  return std::binary_search(members_.begin(), members_.end(), wr);
}

void SurvivorTeam::barrier() {
  PeContext& ctx = xbrtime_ctx();
  if (ctx.pending_completion() > ctx.clock().cycles()) {
    ctx.clock().set(ctx.pending_completion());
  }
  ctx.clear_pending();
  machine_->sanitizer().on_wait(ctx.rank());
  FaultInjector& fault = machine_->fault_injector();
  if (fault.enabled()) fault.on_barrier_arrival(ctx.rank());  // scripted kill
  const std::uint64_t t = barrier_->arrive_and_wait(ctx.clock().cycles());
  ctx.clock().set(t);
}

void SurvivorTeam::revoke() {
  PeContext& ctx = xbrtime_ctx();
  BarrierPoison info;
  info.reason = "survivor team (epoch " + std::to_string(epoch_) +
                ") revoked by rank " + std::to_string(ctx.rank());
  barrier_->poison(info);
  machine_->recovery().counters().revokes.fetch_add(1);
  ctx.trace().record(EventKind::kRecovery, -1,
                     static_cast<std::uint64_t>(RecoveryOp::kRevoke),
                     members_.size());
}

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
    // survivor still carries so every member re-enters symmetric.
    ctx.clear_pending();
    machine.sanitizer().on_wait(ctx.rank());
    xbrtime_stage_reset();

    const AgreeResult ag = detail::agree_over_world_ranks(expected, ~0ull);
    expected = ag.roster;
    try {
      auto team = std::make_unique<SurvivorTeam>(ag.roster, ag.epoch);
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
  if (auto* survivor = dynamic_cast<SurvivorTeam*>(&comm)) {
    survivor->revoke();
    return;
  }
  if (auto* team = dynamic_cast<Team*>(&comm)) {
    team->revoke();
    return;
  }
  throw Error("xbr_team_revoke: only team communicators can be revoked");
}

}  // namespace xbgas
