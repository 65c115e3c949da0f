#include "xbrtime/nbi.hpp"

#include <algorithm>
#include <atomic>

#include "xbrtime/wc.hpp"

namespace xbgas {

namespace {

struct NbiCountersAtomic {
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> tests{0};
  std::atomic<std::uint64_t> waits{0};
  std::atomic<std::uint64_t> quiets{0};
};

NbiCountersAtomic& nbi_counters_atomic() {
  static NbiCountersAtomic counters;
  return counters;
}

/// Find the inflight entry for `id`, or end(). The table is small (live
/// requests only) and append-ordered, so a linear scan is the right shape.
std::vector<NbInflight>::iterator find_inflight(XbrtimeRuntimeState& st,
                                                std::uint64_t id) {
  return std::find_if(st.nbi_inflight.begin(), st.nbi_inflight.end(),
                      [id](const NbInflight& r) { return r.id == id; });
}

}  // namespace

RmaNbiCounters rma_nbi_counters() {
  NbiCountersAtomic& c = nbi_counters_atomic();
  return RmaNbiCounters{
      .puts = c.puts.load(std::memory_order_relaxed),
      .gets = c.gets.load(std::memory_order_relaxed),
      .tests = c.tests.load(std::memory_order_relaxed),
      .waits = c.waits.load(std::memory_order_relaxed),
      .quiets = c.quiets.load(std::memory_order_relaxed),
  };
}

void reset_rma_nbi_counters() {
  NbiCountersAtomic& c = nbi_counters_atomic();
  c.puts.store(0, std::memory_order_relaxed);
  c.gets.store(0, std::memory_order_relaxed);
  c.tests.store(0, std::memory_order_relaxed);
  c.waits.store(0, std::memory_order_relaxed);
  c.quiets.store(0, std::memory_order_relaxed);
}

bool xbr_test(XbrRequest req) {
  nbi_counters_atomic().tests.fetch_add(1, std::memory_order_relaxed);
  if (req.is_null()) return true;
  PeContext& ctx = xbrtime_ctx();
  XbrtimeRuntimeState& st = ctx.xbrtime_state();
  const auto it = find_inflight(st, req.id);
  if (it == st.nbi_inflight.end()) return true;  // retired by a prior fence
  if (ctx.clock().cycles() < it->done_at) return false;
  st.nbi_inflight.erase(it);
  ctx.machine().sanitizer().on_wait_req(ctx.rank(), req.id);
  return true;
}

void xbr_wait_req(XbrRequest req) {
  if (req.is_null()) return;
  PeContext& ctx = xbrtime_ctx();
  XbrtimeRuntimeState& st = ctx.xbrtime_state();
  const auto it = find_inflight(st, req.id);
  if (it == st.nbi_inflight.end()) return;  // retired by a prior fence
  if (it->done_at > ctx.clock().cycles()) {
    ctx.clock().set(it->done_at);
  }
  st.nbi_inflight.erase(it);
  ctx.machine().sanitizer().on_wait_req(ctx.rank(), req.id);
  nbi_counters_atomic().waits.fetch_add(1, std::memory_order_relaxed);
}

void xbr_quiet() {
  PeContext& ctx = xbrtime_ctx();
  detail::nb_drain_all(ctx);
  nbi_counters_atomic().quiets.fetch_add(1, std::memory_order_relaxed);
}

void xbr_fence() { xbr_quiet(); }

namespace detail {

void note_nbi_issue(bool is_put) {
  NbiCountersAtomic& c = nbi_counters_atomic();
  (is_put ? c.puts : c.gets).fetch_add(1, std::memory_order_relaxed);
}

void nb_drain_all(PeContext& ctx) {
  // Flush first: buffered small puts become real transfers whose cost lands
  // on the clock before the horizon drain below absorbs outstanding nb work.
  wc_flush_all(ctx);
  if (ctx.pending_completion() > ctx.clock().cycles()) {
    ctx.clock().set(ctx.pending_completion());
  }
  ctx.clear_pending();
  ctx.xbrtime_state().nbi_inflight.clear();
  ctx.machine().sanitizer().on_wait(ctx.rank());
}

void fence_and_arrive(PeContext& ctx, ClockSyncBarrier& barrier) {
  nb_drain_all(ctx);
  FaultInjector& fault = ctx.machine().fault_injector();
  if (fault.enabled()) fault.on_barrier_arrival(ctx.rank());  // scripted kill
  ctx.clock().set(barrier.arrive_and_wait(ctx.clock().cycles()));
}

void nb_discard_all(PeContext& ctx) {
  XbrtimeRuntimeState& st = ctx.xbrtime_state();
  for (WcTargetBuffer& buf : st.wc.targets) {
    buf.entries.clear();
    buf.payload.clear();
  }
  ctx.clear_pending();
  st.nbi_inflight.clear();
  ctx.machine().sanitizer().on_wait(ctx.rank());
}

}  // namespace detail

}  // namespace xbgas
