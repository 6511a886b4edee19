#include "model/latency.h"

#include <cmath>

#include "common/error.h"

namespace etransform {

LatencyPenaltyFunction LatencyPenaltyFunction::single_step(
    double threshold_ms, Money penalty_per_user) {
  return LatencyPenaltyFunction({{threshold_ms, penalty_per_user}});
}

LatencyPenaltyFunction::LatencyPenaltyFunction(
    std::vector<LatencyPenaltyStep> steps)
    : steps_(std::move(steps)) {
  double previous_threshold = -1.0;
  Money previous_penalty = 0.0;
  for (const auto& step : steps_) {
    if (std::isnan(step.threshold_ms) || step.threshold_ms < 0.0 ||
        step.threshold_ms <= previous_threshold) {
      throw InvalidInputError(
          "LatencyPenaltyFunction: thresholds must be non-negative and "
          "strictly increasing");
    }
    if (!(step.penalty_per_user >= previous_penalty) ||
        !std::isfinite(step.penalty_per_user)) {
      throw InvalidInputError(
          "LatencyPenaltyFunction: penalties must be finite, non-negative "
          "and non-decreasing");
    }
    previous_threshold = step.threshold_ms;
    previous_penalty = step.penalty_per_user;
  }
}

Money LatencyPenaltyFunction::penalty_per_user(double avg_latency_ms) const {
  Money penalty = 0.0;
  for (const auto& step : steps_) {
    if (avg_latency_ms > step.threshold_ms) penalty = step.penalty_per_user;
  }
  return penalty;
}

bool LatencyPenaltyFunction::violated_at(double avg_latency_ms) const {
  return penalty_per_user(avg_latency_ms) > 0.0;
}

double weighted_average_latency(
    const std::vector<double>& latency_to_location,
    const std::vector<double>& users) {
  if (latency_to_location.size() != users.size()) {
    throw InvalidInputError(
        "weighted_average_latency: latency/user vector size mismatch");
  }
  double total_users = 0.0;
  double weighted = 0.0;
  for (std::size_t r = 0; r < users.size(); ++r) {
    if (users[r] < 0.0) {
      throw InvalidInputError("weighted_average_latency: negative user count");
    }
    total_users += users[r];
    weighted += users[r] * latency_to_location[r];
  }
  if (total_users == 0.0) return 0.0;
  return weighted / total_users;
}

}  // namespace etransform
