#include "xbrtime/wc.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "fault/injector.hpp"
#include "machine/fiber.hpp"
#include "san/sanitizer.hpp"
#include "xbrtime/transport.hpp"

namespace xbgas {

namespace {

struct WcCountersAtomic {
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> flushes{0};
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
};

WcCountersAtomic& wc_counters_atomic() {
  static WcCountersAtomic counters;
  return counters;
}

}  // namespace

WcCounters wc_counters() {
  WcCountersAtomic& c = wc_counters_atomic();
  return WcCounters{
      .puts = c.puts.load(std::memory_order_relaxed),
      .enqueued = c.enqueued.load(std::memory_order_relaxed),
      .flushes = c.flushes.load(std::memory_order_relaxed),
      .messages = c.messages.load(std::memory_order_relaxed),
      .bytes = c.bytes.load(std::memory_order_relaxed),
  };
}

void reset_wc_counters() {
  WcCountersAtomic& c = wc_counters_atomic();
  c.puts.store(0, std::memory_order_relaxed);
  c.enqueued.store(0, std::memory_order_relaxed);
  c.flushes.store(0, std::memory_order_relaxed);
  c.messages.store(0, std::memory_order_relaxed);
  c.bytes.store(0, std::memory_order_relaxed);
}

void xbr_wc_enable(std::size_t threshold_bytes, std::size_t capacity_entries) {
  PeContext& ctx = xbrtime_ctx();
  WriteCombinerState& wc = ctx.xbrtime_state().wc;
  detail::wc_flush_all(ctx);  // re-enable with new knobs starts empty
  wc.enabled = true;
  wc.threshold_bytes = threshold_bytes;
  wc.capacity_entries = std::max<std::size_t>(capacity_entries, 1);
  wc.targets.assign(static_cast<std::size_t>(ctx.n_pes()), WcTargetBuffer{});
}

void xbr_wc_disable() {
  PeContext& ctx = xbrtime_ctx();
  detail::wc_flush_all(ctx);
  ctx.xbrtime_state().wc.enabled = false;
}

bool xbr_wc_enabled() {
  return xbrtime_ctx().xbrtime_state().wc.enabled;
}

void xbr_wc_flush() { detail::wc_flush_all(xbrtime_ctx()); }

namespace detail {

bool wc_try_enqueue(void* dest, const void* src, std::size_t elem_size,
                    std::size_t nelems, int stride, int pe) {
  wc_counters_atomic().puts.fetch_add(1, std::memory_order_relaxed);
  PeContext& ctx = xbrtime_ctx();
  WriteCombinerState& wc = ctx.xbrtime_state().wc;
  const std::size_t bytes = elem_size * nelems;
  if (!wc.enabled || stride != 1 || pe == ctx.rank() || nelems == 0 ||
      bytes > wc.threshold_bytes || !ctx.arena().in_shared(dest, bytes)) {
    return false;
  }
  FiberScheduler::poll_yield();

  // XbrSan sees the put at enqueue time: bounds/lifetime/conflicts on the
  // remote range and local-hazard checks on the source, so a bad wc put is
  // diagnosed where it was issued, not at some later flush point.
  Sanitizer& san = ctx.machine().sanitizer();
  if (san.enabled()) {
    san.check_remote("xbr_put_wc", ctx.rank(), pe,
                     ctx.arena().shared_offset_of(dest), bytes,
                     ctx.arena().shared_size(), SanAccess::kWrite,
                     ctx.clock().cycles(), &ctx.trace());
  }
  if (san.conflicts_enabled()) {
    san.check_local("xbr_put_wc", ctx.rank(), src, bytes, /*is_write=*/false,
                    &ctx.trace());
  }

  // Enqueue cost: reading the source (the same accounting rma_transfer
  // applies to its local side) plus the per-element issue work the hardware
  // still performs; the per-MESSAGE alpha is what batching saves.
  ctx.clock().advance(local_access_cycles(ctx, src, bytes) +
                      issue_cycles(ctx.machine().network().params(), nelems));

  WcTargetBuffer& buf = wc.targets[static_cast<std::size_t>(pe)];
  const std::size_t pos = buf.payload.size();
  buf.payload.resize(pos + bytes);
  std::memcpy(buf.payload.data() + pos, src, bytes);
  buf.entries.push_back(
      WcEntry{ctx.arena().shared_offset_of(dest), pos, bytes});
  wc_counters_atomic().enqueued.fetch_add(1, std::memory_order_relaxed);
  if (buf.entries.size() >= wc.capacity_entries) {
    wc_flush_target(ctx, pe);
  }
  return true;
}

void wc_flush_target(PeContext& ctx, int pe) {
  WriteCombinerState& wc = ctx.xbrtime_state().wc;
  if (wc.targets.empty()) return;
  WcTargetBuffer& buf = wc.targets[static_cast<std::size_t>(pe)];
  if (buf.entries.empty()) return;

  FaultInjector& fault = ctx.machine().fault_injector();
  if (fault.enabled()) fault.on_rma_issue(ctx.rank());  // scripted-kill site

  // One put message for the whole batch, through the transport's attempt
  // loop. The payload-corruption stages are skipped (see wc.hpp), so there
  // is nothing to land per attempt.
  const std::size_t total = buf.payload.size();
  std::uint64_t cycles = 0;
  try {
    remote_attempts(ctx, pe, Wire::kPut, total, cycles, "wc_flush", "wc_flush",
                    [](int, std::uint64_t&) { return true; });
  } catch (...) {
    // The flush failed terminally: drop the batch so the next enqueue does
    // not replay stale entries.
    buf.entries.clear();
    buf.payload.clear();
    throw;
  }

  for (const WcEntry& e : buf.entries) {
    std::byte* target =
        ctx.resolve_symmetric(pe, ctx.arena().shared_at(e.offset));
    std::memcpy(target, buf.payload.data() + e.pos, e.bytes);
  }

  ctx.clock().advance(cycles);
  ctx.trace().record(EventKind::kWcFlush, pe, total, buf.entries.size());
  WcCountersAtomic& c = wc_counters_atomic();
  c.flushes.fetch_add(1, std::memory_order_relaxed);
  c.messages.fetch_add(buf.entries.size(), std::memory_order_relaxed);
  c.bytes.fetch_add(total, std::memory_order_relaxed);
  buf.entries.clear();
  buf.payload.clear();
}

void wc_flush_all(PeContext& ctx) {
  const WriteCombinerState& wc = ctx.xbrtime_state().wc;
  if (!wc.enabled && wc.targets.empty()) return;
  for (int pe = 0; pe < ctx.n_pes(); ++pe) {
    wc_flush_target(ctx, pe);
  }
}

}  // namespace detail

}  // namespace xbgas
