// Golden digests of the heuristic planner's output. The placement (primary
// and secondary sites) is hashed with FNV-1a 64 over its decimal text, and
// the cost and Lagrangian bound are spelled with "%a", so any change to a
// single plan bit or cost bit fails the test. A change to the cost model
// or the local search that alters evaluation order or rounding shows up
// here; re-record only when the plans are meant to change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "datagen/generators.h"
#include "planner/etransform_planner.h"

namespace etransform {
namespace {

std::string plan_digest(const PlannerReport& report) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto feed = [&hash](const std::string& text) {
    for (const unsigned char c : text) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  };
  for (const int j : report.plan.primary) feed(std::to_string(j) + ",");
  feed("|");
  for (const int j : report.plan.secondary) feed(std::to_string(j) + ",");
  char text[96];
  std::snprintf(text, sizeof(text), "%016llx %a",
                static_cast<unsigned long long>(hash),
                report.plan.cost.total());
  std::string digest = text;
  if (!std::isnan(report.lower_bound)) {
    std::snprintf(text, sizeof(text), " %a", report.lower_bound);
    digest += text;
  }
  return digest;
}

std::string heuristic_digest(const ConsolidationInstance& instance,
                             PlannerOptions options) {
  options.engine = PlannerOptions::Engine::kHeuristic;
  const CostModel model(instance);
  const EtransformPlanner planner(options);
  SolveContext ctx;
  return plan_digest(planner.plan(PlanInput(model), ctx));
}

PlannerOptions with_bound() {
  PlannerOptions options;
  options.compute_lower_bound = true;
  return options;
}

TEST(HeuristicGolden, Enterprise1) {
  EXPECT_EQ(heuristic_digest(make_enterprise1(), with_bound()),
            "e8b3c9d1c7193d13 0x1.9db0fbe8513f7p+17 0x1.8ac565a58cd0cp+17");
}

TEST(HeuristicGolden, Florida) {
  EXPECT_EQ(heuristic_digest(make_florida(), with_bound()),
            "97ed2992a5c0cb6f 0x1.664c1373adfc6p+19 0x1.626b15cc5c6p+19");
}

TEST(HeuristicGolden, Enterprise1SharedDr) {
  PlannerOptions options;
  options.enable_dr = true;
  EXPECT_EQ(heuristic_digest(make_enterprise1(), options),
            "a4e5d03ad70dff4b 0x1.49a8268d1de36p+19");
}

TEST(HeuristicGolden, Enterprise1DedicatedDrWithOmega) {
  PlannerOptions options;
  options.enable_dr = true;
  options.dr_sizing = PlannerOptions::DrSizing::kDedicated;
  options.business_impact_omega = 0.3;
  EXPECT_EQ(heuristic_digest(make_enterprise1(), options),
            "9faf1fdfcd4085bf 0x1.8bf5a6e16567p+20");
}

TEST(HeuristicGolden, VpnTradeoff) {
  VpnTradeoffSpec spec;
  spec.num_groups = 200;
  EXPECT_EQ(heuristic_digest(make_vpn_tradeoff(spec), with_bound()),
            "ee96a0b7dc36c84b 0x1.10e5604189368p+16 0x1.10e5265b56207p+16");
}

}  // namespace
}  // namespace etransform
