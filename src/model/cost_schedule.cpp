#include "model/cost_schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace etransform {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

StepSchedule StepSchedule::flat(Money unit_price) {
  return StepSchedule({PriceTier{kInf, unit_price}});
}

StepSchedule StepSchedule::volume_discount(Money base_price, double tier_size,
                                           Money discount_per_tier,
                                           int num_tiers) {
  if (tier_size <= 0.0) {
    throw InvalidInputError("volume_discount: tier_size must be positive");
  }
  if (num_tiers < 1) {
    throw InvalidInputError("volume_discount: need at least one tier");
  }
  std::vector<PriceTier> tiers;
  tiers.reserve(static_cast<std::size_t>(num_tiers));
  for (int k = 0; k < num_tiers; ++k) {
    const double edge = (k == num_tiers - 1) ? kInf : tier_size * (k + 1);
    const Money price = std::max(0.0, base_price - k * discount_per_tier);
    tiers.push_back(PriceTier{edge, price});
  }
  return StepSchedule(std::move(tiers));
}

StepSchedule::StepSchedule(std::vector<PriceTier> tiers)
    : tiers_(std::move(tiers)) {
  if (tiers_.empty()) {
    throw InvalidInputError("StepSchedule: need at least one tier");
  }
  double previous = 0.0;
  for (const auto& tier : tiers_) {
    if (std::isnan(tier.upto) || tier.upto <= previous) {
      throw InvalidInputError(
          "StepSchedule: tier edges must be strictly increasing and positive");
    }
    if (!(tier.unit_price >= 0.0) || !std::isfinite(tier.unit_price)) {
      throw InvalidInputError(
          "StepSchedule: negative or non-finite unit price");
    }
    previous = tier.upto;
  }
  if (std::isfinite(tiers_.back().upto)) {
    tiers_.push_back(PriceTier{kInf, tiers_.back().unit_price});
  }
}

Money StepSchedule::unit_price(double quantity) const {
  if (quantity < 0.0 || std::isnan(quantity)) {
    throw InvalidInputError("StepSchedule: negative quantity");
  }
  for (const auto& tier : tiers_) {
    if (quantity <= tier.upto) return tier.unit_price;
  }
  return tiers_.back().unit_price;  // unreachable: last tier is infinite
}

Money StepSchedule::total_cost(double quantity) const {
  return unit_price(quantity) * quantity;
}

bool StepSchedule::is_flat() const {
  return std::all_of(tiers_.begin(), tiers_.end(), [&](const PriceTier& t) {
    return t.unit_price == tiers_.front().unit_price;
  });
}

}  // namespace etransform
