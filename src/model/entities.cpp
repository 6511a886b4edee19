#include "model/entities.h"

#include <cmath>
#include <numeric>

#include "common/error.h"

namespace etransform {

double distance(const GeoPoint& a, const GeoPoint& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

double ApplicationGroup::total_users() const {
  return std::accumulate(users_per_location.begin(), users_per_location.end(),
                         0.0);
}

int ConsolidationInstance::total_servers() const {
  int total = 0;
  for (const auto& group : groups) total += group.servers;
  return total;
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw InvalidInputError("instance validation: " + what);
}

}  // namespace

void validate_instance(const ConsolidationInstance& instance) {
  const int num_locations = instance.num_locations();
  const int num_sites = instance.num_sites();
  const int num_groups = instance.num_groups();
  if (num_sites == 0) fail("no target sites");
  if (num_groups == 0) fail("no application groups");

  // Cost tables are built from these numbers at model construction, so a
  // NaN or infinity here would poison every plan priced against them.
  const auto finite_point = [](const GeoPoint& p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  };
  for (const auto& location : instance.locations) {
    if (!finite_point(location.position)) {
      fail("location '" + location.name + "' has a non-finite coordinate");
    }
  }
  for (const auto& site : instance.sites) {
    if (!finite_point(site.position)) {
      fail("site '" + site.name + "' has a non-finite coordinate");
    }
  }

  for (const auto& group : instance.groups) {
    if (group.servers <= 0) {
      fail("group '" + group.name + "' has non-positive server count");
    }
    if (!(group.monthly_data_megabits >= 0.0) ||
        !std::isfinite(group.monthly_data_megabits)) {
      fail("group '" + group.name + "' has negative or non-finite data volume");
    }
    if (static_cast<int>(group.users_per_location.size()) != num_locations) {
      fail("group '" + group.name + "' user vector does not match locations");
    }
    for (const double users : group.users_per_location) {
      if (!(users >= 0.0) || !std::isfinite(users)) {
        fail("group '" + group.name +
             "' has negative or non-finite user count");
      }
    }
    for (const int site : group.allowed_sites) {
      if (site < 0 || site >= num_sites) {
        fail("group '" + group.name + "' allows unknown site index " +
             std::to_string(site));
      }
    }
    if (group.pinned_site >= num_sites) {
      fail("group '" + group.name + "' pinned to unknown site");
    }
    if (group.pinned_site >= 0 && !group.allowed_sites.empty()) {
      bool allowed = false;
      for (const int site : group.allowed_sites) {
        allowed |= (site == group.pinned_site);
      }
      if (!allowed) {
        fail("group '" + group.name +
             "' pinned to a site outside its allowed set");
      }
    }
  }

  long long total_capacity = 0;
  for (const auto& site : instance.sites) {
    // Zero is a closed site: apply_period models a failed/maintenance site
    // by zeroing its capacity, and the scaled snapshot must still validate.
    if (site.capacity_servers < 0) {
      fail("site '" + site.name + "' has negative capacity");
    }
    total_capacity += site.capacity_servers;
  }
  if (total_capacity < instance.total_servers()) {
    throw InfeasibleError(
        "instance validation: total target capacity (" +
        std::to_string(total_capacity) + ") below total servers (" +
        std::to_string(instance.total_servers()) + ")");
  }

  if (static_cast<int>(instance.latency_ms.size()) != num_sites) {
    fail("latency matrix must have one row per site");
  }
  for (const auto& row : instance.latency_ms) {
    if (static_cast<int>(row.size()) != num_locations) {
      fail("latency matrix row does not match location count");
    }
    for (const double v : row) {
      if (!(v >= 0.0) || !std::isfinite(v)) {
        fail("negative or non-finite latency entry");
      }
    }
  }

  if (instance.use_vpn_links) {
    if (static_cast<int>(instance.vpn_link_monthly_cost.size()) != num_sites) {
      fail("VPN cost matrix must have one row per site");
    }
    for (const auto& row : instance.vpn_link_monthly_cost) {
      if (static_cast<int>(row.size()) != num_locations) {
        fail("VPN cost matrix row does not match location count");
      }
      for (const double v : row) {
        if (!(v >= 0.0) || !std::isfinite(v)) {
          fail("negative or non-finite VPN link cost");
        }
      }
    }
    if (instance.params.vpn_link_capacity_megabits <= 0.0) {
      fail("VPN link capacity must be positive");
    }
  }

  if (!instance.as_is_placement.empty()) {
    if (static_cast<int>(instance.as_is_placement.size()) != num_groups) {
      fail("as-is placement must cover every group");
    }
    const int num_centers = static_cast<int>(instance.as_is_centers.size());
    if (num_centers == 0) fail("as-is placement without as-is centers");
    for (const int center : instance.as_is_placement) {
      if (center < 0 || center >= num_centers) {
        fail("as-is placement references unknown center");
      }
    }
    if (!instance.as_is_latency_ms.empty()) {
      if (static_cast<int>(instance.as_is_latency_ms.size()) != num_centers) {
        fail("as-is latency matrix must have one row per as-is center");
      }
      for (const auto& row : instance.as_is_latency_ms) {
        if (static_cast<int>(row.size()) != num_locations) {
          fail("as-is latency row does not match location count");
        }
        for (const double v : row) {
          if (!(v >= 0.0) || !std::isfinite(v)) {
            fail("negative or non-finite as-is latency entry");
          }
        }
      }
    }
  }

  for (const auto& sep : instance.separations) {
    if (sep.group_a < 0 || sep.group_a >= num_groups || sep.group_b < 0 ||
        sep.group_b >= num_groups) {
      fail("separation constraint references unknown group");
    }
    if (sep.group_a == sep.group_b) {
      fail("separation constraint pairs a group with itself");
    }
  }

  if (instance.params.server_power_kw < 0.0 ||
      instance.params.servers_per_admin <= 0.0 ||
      instance.params.dr_server_cost < 0.0 ||
      instance.params.hours_per_month <= 0.0) {
    fail("cost parameters out of range");
  }

  // Every group must fit somewhere it is allowed.
  for (const auto& group : instance.groups) {
    bool fits = false;
    const auto allowed_at = [&](int j) {
      if (group.pinned_site >= 0) return j == group.pinned_site;
      if (group.allowed_sites.empty()) return true;
      for (const int site : group.allowed_sites) {
        if (site == j) return true;
      }
      return false;
    };
    for (int j = 0; j < num_sites; ++j) {
      if (allowed_at(j) &&
          instance.sites[static_cast<std::size_t>(j)].capacity_servers >=
              group.servers) {
        fits = true;
        break;
      }
    }
    if (!fits) {
      throw InfeasibleError("instance validation: group '" + group.name +
                            "' does not fit in any allowed site");
    }
  }
}

}  // namespace etransform
