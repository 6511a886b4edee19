// Tests for the .etf instance serialization: round-trips, hand-written
// files, and malformed-input rejection.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "common/error.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "model/instance_io.h"

namespace etransform {
namespace {

void expect_equivalent(const ConsolidationInstance& a,
                       const ConsolidationInstance& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  ASSERT_EQ(a.num_sites(), b.num_sites());
  ASSERT_EQ(a.num_locations(), b.num_locations());
  EXPECT_EQ(a.use_vpn_links, b.use_vpn_links);
  EXPECT_EQ(a.as_is_placement, b.as_is_placement);
  for (int i = 0; i < a.num_groups(); ++i) {
    const auto& ga = a.groups[static_cast<std::size_t>(i)];
    const auto& gb = b.groups[static_cast<std::size_t>(i)];
    EXPECT_EQ(ga.servers, gb.servers);
    EXPECT_DOUBLE_EQ(ga.monthly_data_megabits, gb.monthly_data_megabits);
    EXPECT_EQ(ga.users_per_location, gb.users_per_location);
    EXPECT_EQ(ga.pinned_site, gb.pinned_site);
    EXPECT_EQ(ga.allowed_sites, gb.allowed_sites);
    ASSERT_EQ(ga.latency_penalty.steps().size(),
              gb.latency_penalty.steps().size());
    for (std::size_t s = 0; s < ga.latency_penalty.steps().size(); ++s) {
      EXPECT_DOUBLE_EQ(ga.latency_penalty.steps()[s].threshold_ms,
                       gb.latency_penalty.steps()[s].threshold_ms);
      EXPECT_DOUBLE_EQ(ga.latency_penalty.steps()[s].penalty_per_user,
                       gb.latency_penalty.steps()[s].penalty_per_user);
    }
  }
  for (int j = 0; j < a.num_sites(); ++j) {
    const auto& sa = a.sites[static_cast<std::size_t>(j)];
    const auto& sb = b.sites[static_cast<std::size_t>(j)];
    EXPECT_EQ(sa.capacity_servers, sb.capacity_servers);
    ASSERT_EQ(sa.space_cost_per_server.tiers().size(),
              sb.space_cost_per_server.tiers().size());
    for (std::size_t t = 0; t < sa.space_cost_per_server.tiers().size();
         ++t) {
      EXPECT_DOUBLE_EQ(sa.space_cost_per_server.tiers()[t].unit_price,
                       sb.space_cost_per_server.tiers()[t].unit_price);
    }
    EXPECT_EQ(a.latency_ms[static_cast<std::size_t>(j)],
              b.latency_ms[static_cast<std::size_t>(j)]);
  }
  EXPECT_EQ(a.separations.size(), b.separations.size());
  EXPECT_EQ(a.as_is_centers.size(), b.as_is_centers.size());
}

TEST(InstanceIo, RoundTripsRandomInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    auto instance = make_random_instance(rng, 8, 3, 2);
    instance.groups[0].pinned_site = 1;
    instance.groups[1].allowed_sites = {0, 2};
    instance.separations.push_back({2, 3});
    const ConsolidationInstance reparsed =
        parse_instance(write_instance(instance));
    expect_equivalent(instance, reparsed);
    // Fixed point: a second write is byte-identical.
    EXPECT_EQ(write_instance(instance), write_instance(reparsed));
  }
}

TEST(InstanceIo, RoundTripsVpnMode) {
  VpnTradeoffSpec spec;
  spec.num_groups = 20;
  const auto instance = make_vpn_tradeoff(spec);
  const ConsolidationInstance reparsed =
      parse_instance(write_instance(instance));
  EXPECT_TRUE(reparsed.use_vpn_links);
  expect_equivalent(instance, reparsed);
}

TEST(InstanceIo, RoundTripsEnterprise1Exactly) {
  const auto instance = make_enterprise1();
  const ConsolidationInstance reparsed =
      parse_instance(write_instance(instance));
  expect_equivalent(instance, reparsed);
  EXPECT_EQ(reparsed.total_servers(), 1070);
}

TEST(InstanceIo, ParsesHandWrittenFile) {
  const std::string text = R"(# tiny estate
etransform-instance v1
name demo
params 0.35 130 1e6 1000 730
location east 0 0
location west 100 0
site colo-a 10 0 50
site.space colo-a 20 100 inf 80
site.power colo-a inf 0.1
site.labor colo-a inf 6000
site.wan colo-a inf 1.5e-5
site.latency colo-a 5 30
site colo-b 90 0 50
site.space colo-b inf 120
site.power colo-b inf 0.12
site.labor colo-b inf 7000
site.wan colo-b inf 1.5e-5
site.latency colo-b 30 5
group crm 8 1e6 100 0
group.penalty crm 10 100
group erp 12 2e6 50 50
group.allow erp colo-a colo-b
asis room 0 0 250 3e-5 0.2 9000
asis.latency room 6 28
place crm room
place erp room
end
)";
  const ConsolidationInstance instance = parse_instance(text);
  EXPECT_EQ(instance.name, "demo");
  EXPECT_EQ(instance.num_groups(), 2);
  EXPECT_EQ(instance.num_sites(), 2);
  EXPECT_EQ(instance.groups[0].servers, 8);
  EXPECT_DOUBLE_EQ(
      instance.groups[0].latency_penalty.penalty_per_user(11.0), 100.0);
  EXPECT_EQ(instance.groups[1].allowed_sites, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(
      instance.sites[0].space_cost_per_server.unit_price(25.0), 80.0);
  EXPECT_EQ(instance.as_is_placement, (std::vector<int>{0, 0}));
  EXPECT_EQ(instance.as_is_centers[0].servers, 20);
}

TEST(InstanceIo, RejectsMalformedFiles) {
  EXPECT_THROW((void)parse_instance(""), ParseError);
  EXPECT_THROW((void)parse_instance("wrong header\nend\n"), ParseError);
  EXPECT_THROW((void)parse_instance("etransform-instance v1\n"), ParseError);
  // Unknown directive.
  EXPECT_THROW(
      (void)parse_instance("etransform-instance v1\nbogus x\nend\n"),
      ParseError);
  // Reference before definition.
  EXPECT_THROW((void)parse_instance(
                   "etransform-instance v1\nsite.latency nowhere 1\nend\n"),
               ParseError);
  // Bad number.
  EXPECT_THROW((void)parse_instance(
                   "etransform-instance v1\nlocation l x 0\nend\n"),
               ParseError);
  // Wrong per-location arity.
  EXPECT_THROW(
      (void)parse_instance("etransform-instance v1\nlocation l 0 0\n"
                           "site s 0 0 10\nsite.latency s 1 2\nend\n"),
      ParseError);
  // Per-location rows without even a name.
  for (const char* row : {"site.latency", "site.vpn", "asis.latency"}) {
    EXPECT_THROW((void)parse_instance("etransform-instance v1\nlocation l 0 "
                                      "0\nsite s 0 0 10\n" +
                                      std::string(row) + "\nend\n"),
                 ParseError)
        << row;
  }
}

TEST(InstanceIo, NumberSpellingsKeepTheirOutcome) {
  // Each spelling as a location coordinate; the expected bits (nullopt =
  // "bad number") are what the std::stod-based parser read. Spellings that
  // read as NaN or infinity still parse, and instance validation then
  // rejects the non-finite coordinate.
  const std::pair<const char*, std::optional<std::uint64_t>> cases[] = {
      {"5", 0x4014000000000000},
      {"-5", 0xc014000000000000},
      {"+5", 0x4014000000000000},
      {"0x10", 0x4030000000000000},
      {"5.", 0x4014000000000000},
      {".5", 0x3fe0000000000000},
      {"-.5", 0xbfe0000000000000},
      {"1e", std::nullopt},
      {"1e+", std::nullopt},
      {"1e5x", std::nullopt},
      {"1e-310", std::nullopt},
      {"4.9e-324", std::nullopt},
      {"1e-400", std::nullopt},
      {"1e999", std::nullopt},
      {"nan", 0x7ff8000000000000},
      {"infinity", 0x7ff0000000000000},
      {"-0", 0x8000000000000000},
      {"00012", 0x4028000000000000},
      {"2.2250738585072011e-308", std::nullopt},
  };
  for (const auto& [spelling, bits] : cases) {
    const std::string text =
        "etransform-instance v1\nlocation l " + std::string(spelling) +
        " 0\nsite s 0 0 10\nsite.space s inf 1\nsite.power s inf 1\n"
        "site.labor s inf 1\nsite.wan s inf 1\nsite.latency s 1\n"
        "group g 1 0 1\nend\n";
    const bool finite =
        bits.has_value() && std::isfinite(std::bit_cast<double>(*bits));
    try {
      const ConsolidationInstance instance = parse_instance(text);
      ASSERT_TRUE(finite) << spelling << " should be rejected";
      EXPECT_EQ(std::bit_cast<std::uint64_t>(instance.locations[0].position.x),
                *bits)
          << spelling;
    } catch (const ParseError& e) {
      EXPECT_FALSE(bits.has_value()) << spelling << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("line 2: bad number"),
                std::string::npos)
          << e.what();
    } catch (const InvalidInputError& e) {
      EXPECT_TRUE(bits.has_value() && !finite) << spelling << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("non-finite coordinate"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(InstanceIo, NonFiniteNumbersParseButFailValidation) {
  // One .etf file with a placeholder per validated number. The finite
  // spelling round-trips; NaN or an infinity in any one field reads as a
  // number and is then rejected by validation, never silently priced.
  const auto etf = [](const std::string& field, const std::string& value) {
    const auto at = [&](const char* name, const char* fine) {
      return field == name ? value : std::string(fine);
    };
    return "etransform-instance v1\nlocation l " + at("location", "3") +
           " 0\nsite s " + at("site", "4") +
           " 0 10\nsite.space s inf 1\nsite.power s inf 1\n"
           "site.labor s inf 1\nsite.wan s inf 1\nsite.latency s " +
           at("latency", "5") + "\nsite.vpn s " + at("vpn", "40") +
           "\ngroup g 1 " + at("data", "1e6") + " " + at("users", "7") +
           "\nend\n";
  };
  const ConsolidationInstance fine = parse_instance(etf("", ""));
  EXPECT_TRUE(fine.use_vpn_links);
  EXPECT_EQ(write_instance(parse_instance(write_instance(fine))),
            write_instance(fine));
  for (const char* field :
       {"location", "site", "latency", "vpn", "data", "users"}) {
    for (const char* spelling : {"nan", "inf", "-inf", "infinity"}) {
      EXPECT_THROW((void)parse_instance(etf(field, spelling)),
                   InvalidInputError)
          << field << " = " << spelling;
    }
  }
}

/// A minimal valid .etf file with one line appended before `end`.
std::string tiny_etf_with(const std::string& extra) {
  return "etransform-instance v1\nlocation l 3 0\nsite s 4 0 10\n"
         "site.space s inf 1\nsite.power s inf 1\nsite.labor s inf 1\n"
         "site.wan s inf 1\nsite.latency s 5\ngroup g 1 1e6 7\n" +
         extra + "end\n";
}

TEST(InstanceIo, RejectsNonFiniteSchedulePrice) {
  EXPECT_NO_THROW(
      (void)parse_instance(tiny_etf_with("site.space s 2 3 inf 1\n")));
  for (const char* price : {"inf", "infinity", "-inf", "nan"}) {
    EXPECT_THROW((void)parse_instance(tiny_etf_with(
                     std::string("site.space s 2 3 inf ") + price + "\n")),
                 ParseError)
        << price;
  }
}

TEST(InstanceIo, RejectsNonFiniteLatencyPenalty) {
  EXPECT_NO_THROW(
      (void)parse_instance(tiny_etf_with("group.penalty g 10 2\n")));
  for (const char* penalty : {"inf", "infinity", "nan"}) {
    EXPECT_THROW((void)parse_instance(tiny_etf_with(
                     std::string("group.penalty g 10 ") + penalty + "\n")),
                 ParseError)
        << penalty;
  }
}

TEST(InstanceIo, RejectsNonFiniteAsIsLatency) {
  const auto asis = [](const std::string& latency) {
    return tiny_etf_with("asis old 0 0 1 1 1 1\nasis.latency old " + latency +
                         "\nplace g old\n");
  };
  EXPECT_NO_THROW((void)parse_instance(asis("12")));
  for (const char* latency : {"nan", "inf", "-inf", "infinity", "-1"}) {
    EXPECT_THROW((void)parse_instance(asis(latency)), InvalidInputError)
        << latency;
  }
}

TEST(InstanceIo, ReportsLineNumbers) {
  try {
    (void)parse_instance("etransform-instance v1\nname ok\nbogus\nend\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(InstanceIo, ParsedInstanceFailsValidationWhenInconsistent) {
  // Structurally parseable but semantically infeasible: capacity shortfall.
  const std::string text = R"(etransform-instance v1
name bad
params 0.35 130 1e6 1000 730
location l 0 0
site s 0 0 2
site.space s inf 10
site.power s inf 0
site.labor s inf 0
site.wan s inf 0
site.latency s 5
group g 5 0 1
end
)";
  EXPECT_THROW((void)parse_instance(text), InfeasibleError);
}

}  // namespace
}  // namespace etransform
