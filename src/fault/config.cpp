#include "fault/config.hpp"

#include <cmath>
#include <string>

#include "fault/errors.hpp"

namespace xbgas {

namespace {

void check_prob(const char* name, double p) {
  if (std::isnan(p) || p < 0.0 || p > 1.0) {
    throw FaultConfigError("FaultConfig::" + std::string(name) +
                           " must be a probability in [0, 1], got " +
                           std::to_string(p));
  }
}

const char* kill_site_name(KillSite s) {
  switch (s) {
    case KillSite::kNone: return "none";
    case KillSite::kBarrier: return "barrier";
    case KillSite::kRma: return "rma";
    case KillSite::kAgree: return "agree";
    case KillSite::kAmo: return "amo";
  }
  return "unknown";
}

void check_kill(const KillSpec& k, int n_pes) {
  if (k.site == KillSite::kNone) {
    throw FaultConfigError("scripted kill has site=none; drop the entry "
                           "instead of scheduling a kill that cannot fire");
  }
  if (k.rank < 0 || k.rank >= n_pes) {
    throw FaultConfigError("scripted kill rank " + std::to_string(k.rank) +
                           " out of range for a " + std::to_string(n_pes) +
                           "-PE machine");
  }
  if (k.at == 0) {
    throw FaultConfigError(
        "scripted kill at " + std::string(kill_site_name(k.site)) +
        " #0 can never fire (trigger counts are 1-based); use at >= 1");
  }
}

void check_link(const LinkSpec& l, int n_pes) {
  if (l.a < 0 || l.a >= n_pes || l.b < 0 || l.b >= n_pes) {
    throw FaultConfigError("scripted link fault (" + std::to_string(l.a) +
                           ", " + std::to_string(l.b) +
                           ") names a rank out of range for a " +
                           std::to_string(n_pes) + "-PE machine");
  }
  if (l.a == l.b) {
    throw FaultConfigError("scripted link fault (" + std::to_string(l.a) +
                           ", " + std::to_string(l.b) +
                           ") is a self-loop: a PE's local path cannot fail");
  }
  if (l.at == 0) {
    throw FaultConfigError(
        "scripted link fault activates at cycle 0; activation cycles are "
        ">= 1 so a fresh machine always starts with the link up");
  }
  if (l.heal_at != 0 && l.heal_at <= l.at) {
    throw FaultConfigError(
        "scripted link fault heals at cycle " + std::to_string(l.heal_at) +
        " which is not after its activation at cycle " + std::to_string(l.at));
  }
}

void check_partition(const PartitionSpec& p, int n_pes) {
  if (p.lo < 0 || p.hi < p.lo || p.hi >= n_pes) {
    throw FaultConfigError("scripted partition group [" +
                           std::to_string(p.lo) + ", " + std::to_string(p.hi) +
                           "] is not a valid rank range on a " +
                           std::to_string(n_pes) + "-PE machine");
  }
  if (p.lo == 0 && p.hi == n_pes - 1) {
    throw FaultConfigError(
        "scripted partition group covers every rank; a 2-way partition needs "
        "a proper subset on each side");
  }
  if (p.at == 0) {
    throw FaultConfigError(
        "scripted partition activates at cycle 0; activation cycles are "
        ">= 1 so a fresh machine always starts connected");
  }
  if (p.heal_at != 0 && p.heal_at <= p.at) {
    throw FaultConfigError(
        "scripted partition heals at cycle " + std::to_string(p.heal_at) +
        " which is not after its activation at cycle " + std::to_string(p.at));
  }
}

}  // namespace

void validate_fault_config(const FaultConfig& config, int n_pes) {
  check_prob("rma_drop_prob", config.rma_drop_prob);
  check_prob("rma_delay_prob", config.rma_delay_prob);
  check_prob("rma_bitflip_prob", config.rma_bitflip_prob);
  check_prob("olb_fault_prob", config.olb_fault_prob);
  check_prob("amo_drop_prob", config.amo_drop_prob);
  check_prob("amo_delay_prob", config.amo_delay_prob);
  if (config.max_rma_retries < 0) {
    throw FaultConfigError("FaultConfig::max_rma_retries must be >= 0, got " +
                           std::to_string(config.max_rma_retries));
  }
  if (config.max_rma_retries > 0 && config.backoff_base_cycles == 0) {
    throw FaultConfigError(
        "FaultConfig::backoff_base_cycles is 0 with retries enabled: every "
        "retry would be charged zero modeled time, silently understating the "
        "cost of resilience; use a positive base (default 64)");
  }
  for (const KillSpec& k : config.kills) check_kill(k, n_pes);
  if (std::isnan(config.degraded_beta_factor) ||
      config.degraded_beta_factor < 1.0) {
    throw FaultConfigError(
        "FaultConfig::degraded_beta_factor must be >= 1 (a degraded link "
        "cannot be faster than a healthy one), got " +
        std::to_string(config.degraded_beta_factor));
  }
  for (const LinkSpec& l : config.links) check_link(l, n_pes);
  for (const PartitionSpec& p : config.partitions) check_partition(p, n_pes);
}

}  // namespace xbgas
