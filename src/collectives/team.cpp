#include "collectives/team.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "xbrtime/nbi.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {

namespace {

/// The active set { start, start + stride, ..., start + (size-1) * stride }.
std::vector<int> active_set(int start, int stride, int size) {
  XBGAS_CHECK(size >= 1, "team size must be >= 1");
  XBGAS_CHECK(stride >= 1, "team stride must be >= 1");
  XBGAS_CHECK(start >= 0 && start + (size - 1) * stride < xbrtime_ctx().n_pes(),
              "team active set exceeds the world");
  std::vector<int> members(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    members[static_cast<std::size_t>(r)] = start + r * stride;
  }
  return members;
}

}  // namespace

Team::Team(int start, int stride, int size)
    : Team(active_set(start, stride, size), 0) {}

Team::Team(std::vector<int> members, std::uint64_t epoch)
    : members_(std::move(members)), epoch_(epoch) {
  PeContext& ctx = xbrtime_ctx();
  machine_ = &ctx.machine();

  XBGAS_CHECK(!members_.empty(), "team must have >= 1 member");
  XBGAS_CHECK(std::is_sorted(members_.begin(), members_.end()),
              "team members must be ascending");
  const auto it =
      std::lower_bound(members_.begin(), members_.end(), ctx.rank());
  XBGAS_CHECK(it != members_.end() && *it == ctx.rank(),
              "calling PE is not a member of this team");
  my_rank_ = static_cast<int>(it - members_.begin());

  barrier_ = machine_->team_barrier(members_, epoch_);
  barrier();  // rendezvous: every member holds the barrier before any use
}

Team::~Team() = default;

int Team::world_rank(int r) const {
  XBGAS_CHECK(r >= 0 && r < n_pes(), "team rank out of range");
  return members_[static_cast<std::size_t>(r)];
}

bool Team::contains_world_rank(int wr) const {
  return std::binary_search(members_.begin(), members_.end(), wr);
}

void Team::revoke() {
  PeContext& ctx = xbrtime_ctx();
  BarrierPoison info;
  info.reason = "team of " + std::to_string(members_.size()) +
                " (epoch " + std::to_string(epoch_) + ") revoked by rank " +
                std::to_string(ctx.rank());
  barrier_->poison(info);
  machine_->recovery().counters().revokes.fetch_add(1);
  ctx.trace().record(EventKind::kRecovery, -1,
                     static_cast<std::uint64_t>(RecoveryOp::kRevoke),
                     members_.size());
}

void Team::barrier() {
  PeContext& ctx = xbrtime_ctx();
  // Full fence, same as the world barrier: write combiner flushed, all
  // nonblocking traffic (legacy and request-tracked) completed.
  detail::nb_drain_all(ctx);
  FaultInjector& fault = machine_->fault_injector();
  if (fault.enabled()) fault.on_barrier_arrival(ctx.rank());  // scripted kill
  const std::uint64_t t = barrier_->arrive_and_wait(ctx.clock().cycles());
  ctx.clock().set(t);
}

}  // namespace xbgas
