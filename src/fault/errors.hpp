#pragma once

// Typed errors of the resilience layer.
//
// All of them derive from xbgas::Error so existing catch sites keep working;
// the subtypes carry the structured facts (which rank died, which ranks
// reached a barrier, how many retries were spent) that the fault-sweep tests
// and post-mortem tooling assert on.

#include <string>
#include <vector>

#include "common/error.hpp"

namespace xbgas {

/// A FaultConfig (or watchdog parameter) that cannot describe a valid fault
/// plan: probabilities outside [0, 1], a retry base of 0 cycles with retries
/// enabled, a kill spec naming a rank the machine does not have, a 0 trigger
/// count that could never fire. Raised at Machine construction (or CLI
/// parse) instead of letting the bad value silently misbehave later.
class FaultConfigError : public Error {
 public:
  explicit FaultConfigError(const std::string& what_arg) : Error(what_arg) {}
};

/// A remote transfer kept failing after the bounded retry/backoff budget
/// (FaultConfig::max_rma_retries) was exhausted. Carries structured facts —
/// which target rank, which transport site (olb/drop/checksum/amo_drop/
/// link_down/wc_flush), how many attempts — so the serving retry layer and
/// the unreachable-peer escalation can switch on fields instead of parsing
/// the message.
class RmaRetriesExhaustedError : public Error {
 public:
  RmaRetriesExhaustedError(const std::string& what_arg, int attempts,
                           int target_rank, std::string site)
      : Error(what_arg),
        attempts_(attempts),
        target_rank_(target_rank),
        site_(std::move(site)) {}

  /// Total attempts performed (first try + retries).
  int attempts() const { return attempts_; }
  /// World rank of the remote target the transfer failed against.
  int target_rank() const { return target_rank_; }
  /// Transport site that exhausted: "olb", "drop", "checksum", "amo_drop",
  /// "link_down" or "wc_flush".
  const std::string& site() const { return site_; }

 private:
  int attempts_;
  int target_rank_;
  std::string site_;
};

/// Escalation of RmaRetriesExhaustedError when the failing attempts were all
/// crossing a link the fault plan has scripted *down*: the peer is not
/// transiently lossy, it is unreachable from this PE. Derives from
/// RmaRetriesExhaustedError so legacy catch sites keep compiling, but sites
/// that can recover (serving) must catch this type first and feed `peer()`
/// to the suspect -> xbr_agree -> xbr_team_shrink machinery as if the peer
/// had died.
class PeUnreachableError : public RmaRetriesExhaustedError {
 public:
  PeUnreachableError(const std::string& what_arg, int attempts, int peer,
                     std::string site, int link_a, int link_b)
      : RmaRetriesExhaustedError(what_arg, attempts, peer, std::move(site)),
        link_a_(link_a),
        link_b_(link_b) {}

  /// World rank of the unreachable peer (alias of target_rank()).
  int peer() const { return target_rank(); }
  /// Endpoints of the dead link, normalized a < b.
  int link_a() const { return link_a_; }
  int link_b() const { return link_b_; }

 private:
  int link_a_;
  int link_b_;
};

/// Thrown on every PE that the quorum rule of xbr_agree placed on the losing
/// side of a network partition: the majority component decided (and will
/// shrink) without this rank, so the only safe move is to unwind — acting on
/// local state would split the brain. Carries the majority roster so
/// diagnostics can say who kept going.
class PartitionedError : public Error {
 public:
  PartitionedError(const std::string& what_arg, int rank,
                   std::vector<int> majority)
      : Error(what_arg), rank_(rank), majority_(std::move(majority)) {}

  /// This PE's world rank.
  int rank() const { return rank_; }
  /// World ranks of the majority component that proceeded without us
  /// (empty when no component reached quorum at all).
  const std::vector<int>& majority_ranks() const { return majority_; }

 private:
  int rank_;
  std::vector<int> majority_;
};

/// A barrier watchdog fired: some participants never arrived within the
/// host-time budget. Carries the rendezvous roster so diagnostics can say
/// exactly who was missing instead of just "hung".
class BarrierTimeoutError : public Error {
 public:
  BarrierTimeoutError(const std::string& what_arg, std::vector<int> arrived,
                      std::vector<int> missing)
      : Error(what_arg),
        arrived_(std::move(arrived)),
        missing_(std::move(missing)) {}

  /// World ranks that reached the barrier before the watchdog fired.
  const std::vector<int>& arrived_ranks() const { return arrived_; }
  /// World ranks that never arrived (empty if the roster is unknown).
  const std::vector<int>& missing_ranks() const { return missing_; }

 private:
  std::vector<int> arrived_;
  std::vector<int> missing_;
};

/// An xbr_agree participant waited longer than the agreement watchdog for
/// the remaining contributions: some expected rank neither contributed nor
/// was marked failed (e.g. it is blocked in an unrelated collective).
/// Carries the roster so the diagnosis names who was missing.
class AgreementTimeoutError : public Error {
 public:
  AgreementTimeoutError(const std::string& what_arg, std::vector<int> missing)
      : Error(what_arg), missing_(std::move(missing)) {}

  /// Expected world ranks that never contributed and never failed.
  const std::vector<int>& missing_ranks() const { return missing_; }

 private:
  std::vector<int> missing_;
};

/// Thrown by every *surviving* participant of a barrier/collective when a
/// peer PE died: the fail-fast protocol's consistent verdict. Names the
/// first dead world rank.
class PeFailedError : public Error {
 public:
  PeFailedError(const std::string& what_arg, int failed_rank)
      : Error(what_arg), failed_rank_(failed_rank) {}

  /// World rank of the (first) failed PE, or -1 if unknown.
  int failed_rank() const { return failed_rank_; }

 private:
  int failed_rank_;
};

/// The exception a scripted FaultConfig kill throws *on the victim PE*.
class PeKilledError : public Error {
 public:
  PeKilledError(const std::string& what_arg, int rank)
      : Error(what_arg), rank_(rank) {}

  int rank() const { return rank_; }

 private:
  int rank_;
};

/// One PE's failure inside an SPMD region, as recorded by Machine::run.
struct PeFailure {
  int rank = -1;
  std::string what;
  /// True when the failure is a secondary PeFailedError/poison unwind
  /// triggered by another PE's death rather than an independent fault.
  bool secondary = false;
};

/// The composite report Machine::run throws when one or more PEs fail:
/// every failed rank and its cause, primaries before secondaries, instead
/// of silently dropping all but the first exception.
class SpmdRegionError : public Error {
 public:
  SpmdRegionError(const std::string& what_arg, std::vector<PeFailure> failures)
      : Error(what_arg), failures_(std::move(failures)) {}

  const std::vector<PeFailure>& failures() const { return failures_; }

 private:
  std::vector<PeFailure> failures_;
};

}  // namespace xbgas
