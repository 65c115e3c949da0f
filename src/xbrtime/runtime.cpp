#include "xbrtime/runtime.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "xbrtime/nbi.hpp"

namespace xbgas {

namespace {

// The runtime's per-PE state (init flag, allocation count, staging stack)
// lives in PeContext::xbrtime_state(), NOT in a thread_local: PE fibers
// migrate between worker threads, so thread identity no longer implies PE
// identity. current_pe_context() resolves the calling fiber's PE.

constexpr std::uint64_t kAllocFailed = std::numeric_limits<std::uint64_t>::max();

/// Cycles charged for the runtime's own bookkeeping on an API call; the
/// paper's library is "as lightweight as possible", so this is a token cost.
constexpr std::uint64_t kApiCallCycles = 10;

/// The calling PE's runtime state, or nullptr outside an SPMD region.
XbrtimeRuntimeState* rt_state() {
  PeContext* ctx = current_pe_context();
  return ctx != nullptr ? &ctx->xbrtime_state() : nullptr;
}

}  // namespace

PeContext& xbrtime_ctx() {
  PeContext* ctx = current_pe_context();
  XBGAS_CHECK(ctx != nullptr && ctx->xbrtime_state().initialized,
              "xbrtime runtime not initialized on this PE "
              "(call xbrtime_init() inside Machine::run)");
  return *ctx;
}

bool xbrtime_initialized() {
  const XbrtimeRuntimeState* st = rt_state();
  return st != nullptr && st->initialized;
}

int xbrtime_init() {
  PeContext* ctx = current_pe_context();
  XBGAS_CHECK(ctx != nullptr,
              "xbrtime_init must be called from an SPMD region");
  XbrtimeRuntimeState& st = ctx->xbrtime_state();
  XBGAS_CHECK(!st.initialized, "xbrtime_init called twice");
  st.initialized = true;
  st.live_allocations = 0;
  ctx->clock().advance(kApiCallCycles);
  xbrtime_barrier();  // init is collective

  // Carve the collective staging region out of the symmetric heap (same
  // offset on every PE because every PE allocates it first).
  const std::size_t stage_bytes =
      std::min<std::size_t>(ctx->arena().shared_size() / 4,
                            std::size_t{16} << 20);
  void* stage = xbrtime_malloc(stage_bytes);
  XBGAS_CHECK(stage != nullptr, "failed to allocate collective staging region");
  st.staging_base = static_cast<std::byte*>(stage);
  st.staging_capacity = stage_bytes;
  st.staging_top = 0;
  st.staging_lifo.clear();
  return 0;
}

void xbrtime_close() {
  PeContext& ctx = xbrtime_ctx();
  XbrtimeRuntimeState& st = ctx.xbrtime_state();
  if (!st.staging_lifo.empty()) {
    XBGAS_LOG_WARN("xbrtime_close: %zu staging blocks still live on PE %d",
                   st.staging_lifo.size(), ctx.rank());
  }
  if (st.staging_base != nullptr) {
    xbrtime_free(st.staging_base);
    st.staging_base = nullptr;
    st.staging_capacity = 0;
    st.staging_top = 0;
    st.staging_lifo.clear();
  }
  xbrtime_barrier();  // close is collective
  if (st.live_allocations != 0) {
    XBGAS_LOG_WARN("xbrtime_close: %zu symmetric allocations leaked on PE %d",
                   st.live_allocations, ctx.rank());
  }
  ctx.clock().advance(kApiCallCycles);
  st = XbrtimeRuntimeState{};
}

int xbrtime_mype() {
  return xbrtime_initialized() ? current_pe_context()->rank() : -1;
}

int xbrtime_num_pes() {
  return xbrtime_initialized() ? current_pe_context()->n_pes() : 0;
}

void xbrtime_barrier() {
  PeContext& ctx = xbrtime_ctx();
  // A barrier is a full fence: the write combiner flushes, all outstanding
  // nonblocking transfers (legacy and request-tracked) complete, and every
  // XbrSan nb zone this PE opened closes.
  detail::nb_drain_all(ctx);
  FaultInjector& fault = ctx.machine().fault_injector();
  if (fault.enabled()) fault.on_barrier_arrival(ctx.rank());  // scripted kill
  const std::uint64_t t =
      ctx.machine().world_barrier().arrive_and_wait(ctx.clock().cycles());
  ctx.clock().set(t);
}

void* xbrtime_malloc(std::size_t bytes) {
  PeContext& ctx = xbrtime_ctx();
  Machine& machine = ctx.machine();
  ctx.clock().advance(kApiCallCycles);

  const auto offset = ctx.shared_allocator().allocate(bytes);
  machine.validation_slot(ctx.rank()) = offset ? *offset : kAllocFailed;
  xbrtime_barrier();

  // Symmetry check: every PE must have produced the same offset. A mismatch
  // means the program broke the collective-allocation discipline. Every PE
  // computes the same verdict from the same slots, so either all throw or
  // none do.
  bool any_failed = false;
  bool mismatch = false;
  std::uint64_t ref = kAllocFailed;
  for (int r = 0; r < ctx.n_pes(); ++r) {
    const std::uint64_t theirs = machine.validation_slot(r);
    if (theirs == kAllocFailed) {
      any_failed = true;
    } else if (ref == kAllocFailed) {
      ref = theirs;
    } else if (theirs != ref) {
      mismatch = true;
    }
  }
  // XbrSan mirrors the allocator state (its own shadow map, under its own
  // lock) so remote-access bounds checks never race the target's allocator.
  // Registration must happen BEFORE the final barrier: the moment a peer
  // exits that barrier it may legally target this block, and it must find
  // the shadow entry already present.
  if (!mismatch && !any_failed) {
    ++ctx.xbrtime_state().live_allocations;
    Sanitizer& san = machine.sanitizer();
    if (san.enabled()) {
      san.on_alloc(ctx.rank(), *offset,
                   ctx.shared_allocator().allocation_size(*offset));
    }
  }
  xbrtime_barrier();  // slots may be rewritten by the next collective

  if (mismatch) {
    throw Error(
        "xbrtime_malloc: asymmetric allocation detected - PEs called "
        "xbrtime_malloc with different histories");
  }
  if (any_failed) {
    if (offset) ctx.shared_allocator().release(*offset);  // roll back
    return nullptr;
  }
  return ctx.arena().shared_at(*offset);
}

void xbrtime_free(void* ptr) {
  PeContext& ctx = xbrtime_ctx();
  XBGAS_CHECK(ptr != nullptr, "xbrtime_free(nullptr)");
  ctx.clock().advance(kApiCallCycles);
  const std::size_t offset = ctx.arena().shared_offset_of(ptr);
  // Free is collective in the SHMEM discipline: synchronize FIRST, so no
  // peer can still be remotely touching the block when it is released. The
  // barrier also orders the XbrSan shadow update — a lagging peer may
  // legally target this block right up to its own free() call, so the
  // shadow entry must stay live until every PE has arrived.
  xbrtime_barrier();
  Sanitizer& san = ctx.machine().sanitizer();
  if (san.enabled()) {
    san.on_free(ctx.rank(), offset,
                ctx.shared_allocator().allocation_size(offset));
  }
  ctx.shared_allocator().release(offset);
  --ctx.xbrtime_state().live_allocations;
}

void* xbrtime_stage_alloc(std::size_t bytes) {
  PeContext& ctx = xbrtime_ctx();
  XbrtimeRuntimeState& st = ctx.xbrtime_state();
  XBGAS_CHECK(st.staging_base != nullptr, "staging region not initialized");
  const std::size_t need = align_up(bytes == 0 ? 1 : bytes, 16);
  XBGAS_CHECK(st.staging_top + need <= st.staging_capacity,
              "collective staging region exhausted - raise "
              "MemoryLayout::shared_bytes");
  std::byte* p = st.staging_base + st.staging_top;
  st.staging_lifo.push_back(st.staging_top);
  st.staging_top += need;
  ctx.clock().advance(kApiCallCycles);
  ctx.trace().record(EventKind::kStagingAlloc, -1, need);
  return p;
}

void xbrtime_stage_free(void* ptr) {
  PeContext& ctx = xbrtime_ctx();
  XbrtimeRuntimeState& st = ctx.xbrtime_state();
  XBGAS_CHECK(!st.staging_lifo.empty(), "stage_free with no live staging block");
  const std::size_t offset = st.staging_lifo.back();
  XBGAS_CHECK(static_cast<std::byte*>(ptr) == st.staging_base + offset,
              "stage_free must release the most recent staging block (LIFO)");
  st.staging_lifo.pop_back();
  st.staging_top = offset;
  ctx.clock().advance(kApiCallCycles);
  ctx.trace().record(EventKind::kStagingFree);
}

std::size_t xbrtime_stage_avail() {
  const XbrtimeRuntimeState& st = xbrtime_ctx().xbrtime_state();
  return st.staging_capacity - st.staging_top;
}

void xbrtime_stage_reset() {
  XbrtimeRuntimeState& st = xbrtime_ctx().xbrtime_state();
  st.staging_top = 0;
  st.staging_lifo.clear();
}

std::size_t xbrtime_stage_offset() {
  PeContext& ctx = xbrtime_ctx();
  const XbrtimeRuntimeState& st = ctx.xbrtime_state();
  XBGAS_CHECK(st.staging_base != nullptr, "staging region not initialized");
  return ctx.arena().shared_offset_of(st.staging_base);
}

XbrtimeStats xbrtime_stats() {
  PeContext& ctx = xbrtime_ctx();
  return XbrtimeStats{
      .pe = ctx.rank(),
      .cycles = ctx.clock().cycles(),
      .l1_hit_rate = ctx.cache().l1().stats().hit_rate(),
      .l2_hit_rate = ctx.cache().l2().stats().hit_rate(),
      .tlb_hit_rate = ctx.cache().tlb().stats().hit_rate(),
      .olb_lookups = ctx.olb().stats().lookups,
      .olb_hits = ctx.olb().stats().hits,
      .olb_local_shortcuts = ctx.olb().stats().local_shortcuts,
  };
}

bool xbrtime_addr_accessible(const void* addr, int pe) {
  PeContext& ctx = xbrtime_ctx();
  if (pe < 0 || pe >= ctx.n_pes()) return false;
  return ctx.arena().in_shared(addr, 1);
}

}  // namespace xbgas
