#include "collectives/team.hpp"

#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>

#include "common/error.hpp"
#include "xbrtime/nbi.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {

namespace {

// Members of a team construct their Team objects independently (one thread
// each) but must share one rendezvous barrier. This registry hands every
// member of the same (machine, start, stride, size) active set the same
// ClockSyncBarrier; the custom deleter unregisters and evicts it when the
// last member's Team is destroyed. The machine is keyed by its never-reused
// instance_id, not its address, which a later Machine may reuse.

using TeamKey = std::tuple<std::uint64_t, int, int, int>;

std::mutex g_registry_mutex;
std::map<TeamKey, std::weak_ptr<ClockSyncBarrier>> g_registry;

std::shared_ptr<ClockSyncBarrier> acquire_barrier(Machine& machine, int start,
                                                  int stride, int size) {
  const TeamKey key{machine.instance_id(), start, stride, size};
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  if (auto it = g_registry.find(key); it != g_registry.end()) {
    if (auto existing = it->second.lock()) return existing;
  }
  const NetCostParams& params = machine.network().params();
  std::vector<int> member_ranks(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    member_ranks[static_cast<std::size_t>(r)] = start + r * stride;
  }
  auto* raw = new ClockSyncBarrier(
      size,
      [params, size](std::uint64_t max_cycles, int) {
        // Team barriers do not reconcile the global fabric phase (see
        // header); they only cost the modeled log2(size) exchange.
        return max_cycles + params.barrier_cycles(size);
      },
      machine.config().fault.barrier_timeout_ms, member_ranks);
  if (machine.sanitizer().conflicts_enabled()) {
    // XbrSan epoch join over exactly the member set: a team barrier orders
    // its members' accesses (vector-clock join), not the whole world's.
    raw->set_all_arrived_hook([&machine, member_ranks] {
      machine.sanitizer().on_barrier_all_arrived(member_ranks);
    });
  }
  std::shared_ptr<ClockSyncBarrier> barrier(
      raw, [key, &machine](ClockSyncBarrier* b) {
        machine.unregister_barrier(b);
        {
          // Between the last release and this lock a member may already
          // have founded the next barrier under the same key; evict the
          // entry only while it still points at a dead barrier.
          const std::lock_guard<std::mutex> inner(g_registry_mutex);
          if (auto it = g_registry.find(key);
              it != g_registry.end() && it->second.expired()) {
            g_registry.erase(it);
          }
        }
        delete b;
      });
  machine.register_barrier(barrier.get());
  g_registry[key] = barrier;
  return barrier;
}

}  // namespace

Team::Team(int start, int stride, int size)
    : start_(start), stride_(stride), size_(size) {
  PeContext& ctx = xbrtime_ctx();
  machine_ = &ctx.machine();
  const int world = machine_->n_pes();

  XBGAS_CHECK(size >= 1, "team size must be >= 1");
  XBGAS_CHECK(stride >= 1, "team stride must be >= 1");
  XBGAS_CHECK(start >= 0 && start + (size - 1) * stride < world,
              "team active set exceeds the world");

  const int wr = ctx.rank();
  const int rel = wr - start;
  XBGAS_CHECK(rel >= 0 && rel % stride == 0 && rel / stride < size,
              "calling PE is not a member of this team");
  my_rank_ = rel / stride;

  barrier_ = acquire_barrier(*machine_, start, stride, size);
  barrier();  // rendezvous: every member holds the barrier before any use
}

Team::~Team() = default;

int Team::world_rank(int r) const {
  XBGAS_CHECK(r >= 0 && r < size_, "team rank out of range");
  return start_ + r * stride_;
}

bool Team::contains_world_rank(int wr) const {
  const int rel = wr - start_;
  return rel >= 0 && rel % stride_ == 0 && rel / stride_ < size_;
}

void Team::revoke() {
  PeContext& ctx = xbrtime_ctx();
  BarrierPoison info;
  info.reason = "team (" + std::to_string(start_) + "," +
                std::to_string(stride_) + "," + std::to_string(size_) +
                ") revoked by rank " + std::to_string(ctx.rank());
  barrier_->poison(info);
  machine_->recovery().counters().revokes.fetch_add(1);
  ctx.trace().record(EventKind::kRecovery, -1,
                     static_cast<std::uint64_t>(RecoveryOp::kRevoke),
                     static_cast<std::uint64_t>(size_));
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
