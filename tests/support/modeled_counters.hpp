#pragma once

// Determinism is a contract over modeled state only: cycles, bytes, data and
// the modeled machine's counters. The sched.* counters record how the host
// scheduled the PE fibers (workers, switches, naps); they legitimately
// differ between two runs on a multi-core host, so replay and golden checks
// compare every counter except those.

#include <string>

#include "trace/collect.hpp"

namespace xbgas::testing {

/// collect_counters(machine) without the host-class sched.* counters.
inline CounterRegistry modeled_counters(const Machine& machine) {
  const CounterRegistry all = collect_counters(machine);
  CounterRegistry modeled;
  for (const std::string& name : all.names()) {
    if (name.rfind("sched.", 0) != 0) modeled.set(name, *all.get(name));
  }
  return modeled;
}

}  // namespace xbgas::testing
