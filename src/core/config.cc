#include "src/core/config.h"

#include <cmath>

namespace pad {
namespace {

bool InUnit(double value) { return value >= 0.0 && value <= 1.0; }

// Whether `whole` is an integer multiple of `part` (to simulation tolerance).
bool Divides(double part, double whole) {
  if (part <= 0.0) {
    return false;
  }
  const double ratio = whole / part;
  return std::fabs(ratio - std::round(ratio)) < 1e-9 && ratio >= 1.0 - 1e-9;
}

}  // namespace

std::string ValidateConfig(const PadConfig& config) {
  // --- Timing ------------------------------------------------------------
  if (!(config.prediction_window_s > 0.0)) {
    return "prediction_window_s must be positive";
  }
  if (!Divides(config.prediction_window_s, kDay)) {
    return "prediction_window_s must divide a day evenly";
  }
  if (!(config.deadline_s > 0.0)) {
    return "deadline_s must be positive";
  }
  // Guard the epoch derivation (EpochS) against degenerate ratios before its
  // int cast, then against the nonsensical epoch > deadline combination.
  if (std::ceil(config.prediction_window_s / (config.deadline_s / 2.0)) > 86400.0) {
    return "deadline_s is too small relative to prediction_window_s";
  }
  if (config.EpochS() > config.deadline_s + 1e-9) {
    return "derived sale epoch exceeds deadline_s; shrink prediction_window_s or widen deadline_s";
  }
  if (config.warmup_days < 0) {
    return "warmup_days must be non-negative";
  }

  // --- Population / market -----------------------------------------------
  if (config.population.num_users < 1) {
    return "population.num_users must be at least 1";
  }
  if (!(config.population.horizon_s > 0.0)) {
    return "population.horizon_s must be positive";
  }
  if (!(config.population.horizon_s > config.WarmupS())) {
    return "population.horizon_s must extend past warmup_days (nothing would be scored)";
  }
  if (config.population.num_segments < 1 || config.population.num_segments > kMaxSegments) {
    return "population.num_segments must be in [1, 32]";
  }
  if (config.market_users < 0) {
    return "market_users must be non-negative (0 = one market for the whole population)";
  }
  if (!InUnit(config.population.skew_heavy_fraction)) {
    return "population.skew_heavy_fraction must be in [0, 1]";
  }
  if (!(config.population.skew_rate_multiplier > 0.0)) {
    return "population.skew_rate_multiplier must be positive";
  }

  // --- Policy knobs -------------------------------------------------------
  if (!(config.capacity_confidence > 0.0 && config.capacity_confidence < 1.0)) {
    return "capacity_confidence must be in (0, 1)";
  }
  if (!(config.planner.sla_target > 0.0 && config.planner.sla_target <= 1.0)) {
    return "planner.sla_target must be in (0, 1]";
  }
  if (config.planner.max_replicas < 1) {
    return "planner.max_replicas must be at least 1";
  }
  if (!(config.planner.confidence_discount > 0.0 && config.planner.confidence_discount <= 1.0)) {
    return "planner.confidence_discount must be in (0, 1]";
  }
  if (config.candidate_pool < 0 || config.random_candidates < 0) {
    return "candidate_pool and random_candidates must be non-negative";
  }
  if (!InUnit(config.rescue_threshold)) {
    return "rescue_threshold must be in [0, 1]";
  }
  // oracle_noise_sigma is deliberately not checked here: -1 is its documented
  // "unset" sentinel and input generation never reads it; RunPad checks the
  // value at the point of use.

  // --- Payloads ------------------------------------------------------------
  if (!(config.ad_bytes > 0.0)) {
    return "ad_bytes must be positive";
  }
  if (config.slot_report_bytes < 0.0 || config.invalidation_bytes < 0.0) {
    return "slot_report_bytes and invalidation_bytes must be non-negative";
  }
  if (!(config.max_slot_rate_per_s > 0.0)) {
    return "max_slot_rate_per_s must be positive";
  }

  // --- Faults --------------------------------------------------------------
  const FaultConfig& faults = config.faults;
  if (!InUnit(faults.report_drop_rate)) {
    return "faults.report_drop_rate must be in [0, 1]";
  }
  if (!InUnit(faults.report_delay_rate)) {
    return "faults.report_delay_rate must be in [0, 1]";
  }
  if (faults.report_drop_rate + faults.report_delay_rate > 1.0 + 1e-12) {
    return "faults.report_drop_rate + faults.report_delay_rate must not exceed 1";
  }
  if (!InUnit(faults.fetch_failure_rate)) {
    return "faults.fetch_failure_rate must be in [0, 1]";
  }
  if (faults.fetch_max_retries < 0) {
    return "faults.fetch_max_retries must be non-negative";
  }
  if (!InUnit(faults.sync_miss_rate)) {
    return "faults.sync_miss_rate must be in [0, 1]";
  }
  if (!InUnit(faults.offline_rate)) {
    return "faults.offline_rate must be in [0, 1]";
  }
  if (faults.offline_rate > 0.0 && !(faults.offline_window_s > 0.0)) {
    return "faults.offline_window_s must be positive when faults.offline_rate is set";
  }
  if (!InUnit(faults.stale_decay)) {
    return "faults.stale_decay must be in [0, 1]";
  }
  return "";
}

}  // namespace pad
