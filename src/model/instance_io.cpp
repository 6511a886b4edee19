#include "model/instance_io.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/strings.h"

namespace etransform {

namespace {

/// Names may not contain whitespace or '#'; escape with '_' on write.
void append_name(std::string& out, std::string_view raw) {
  if (raw.empty()) {
    out += '_';
    return;
  }
  for (const char c : raw) {
    out += (std::isspace(static_cast<unsigned char>(c)) != 0 || c == '#')
               ? '_'
               : c;
  }
}

std::string sanitize_name(std::string_view raw) {
  std::string name;
  append_name(name, raw);
  return name;
}

/// Sanitized names of `entities`, in order: each name is escaped once per
/// write however often it is referenced.
template <class Entity>
std::vector<std::string> sanitized_names(const std::vector<Entity>& entities) {
  std::vector<std::string> names;
  names.reserve(entities.size());
  for (const Entity& entity : entities) {
    names.push_back(sanitize_name(entity.name));
  }
  return names;
}

/// Appends " <text>".
void text_field(std::string& out, std::string_view text) {
  out += ' ';
  out += text;
}

/// Appends " <number>" in its shortest exact spelling.
void number_field(std::string& out, double value) {
  out += ' ';
  append_round_trip(out, value);
}

void int_field(std::string& out, int value) {
  char buf[16];
  out += ' ';
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void write_schedule(std::string& out, const char* key,
                    const std::string& site, const StepSchedule& schedule) {
  out += key;
  text_field(out, site);
  for (const auto& tier : schedule.tiers()) {
    number_field(out, tier.upto);
    number_field(out, tier.unit_price);
  }
  out += '\n';
}

/// Walks text the way std::getline does ('\n'-terminated lines, and a last
/// line without one), cuts '#' comments, and splits each line on whitespace
/// into one field vector reused for the whole text.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Moves to the next line; false once the text is used up.
  bool next() {
    if (pos_ >= text_.size()) return false;
    const std::size_t newline = text_.find('\n', pos_);
    const std::size_t stop =
        newline == std::string_view::npos ? text_.size() : newline;
    std::string_view line = text_.substr(pos_, stop - pos_);
    pos_ = stop + 1;
    ++line_number_;
    line = line.substr(0, line.find('#'));
    split_whitespace(line, fields_);
    return true;
  }

  [[nodiscard]] const std::vector<std::string>& fields() const {
    return fields_;
  }
  [[nodiscard]] int line_number() const { return line_number_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_number_ = 0;
  std::vector<std::string> fields_;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lines_(text) {}

  ConsolidationInstance run() {
    bool saw_header = false;
    bool saw_end = false;
    while (lines_.next()) {
      const std::vector<std::string>& fields = lines_.fields();
      if (fields.empty()) continue;
      if (!saw_header) {
        if (fields.size() < 2 || fields[0] != "etransform-instance" ||
            fields[1] != "v1") {
          fail("file must start with 'etransform-instance v1'");
        }
        saw_header = true;
        continue;
      }
      if (saw_end) fail("content after 'end'");
      if (fields[0] == "end") {
        saw_end = true;
        continue;
      }
      dispatch(fields);
    }
    if (!saw_header) fail("empty file");
    if (!saw_end) fail("missing 'end'");
    finalize();
    validate_instance(instance_);
    return std::move(instance_);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("instance line " + std::to_string(lines_.line_number()) +
                     ": " + what);
  }

  double number(const std::string& field) const {
    const std::optional<double> value = parse_double(field);
    if (!value) fail("bad number '" + field + "'");
    return *value;
  }

  int integer(const std::string& field) const {
    const double value = number(field);
    if (value != std::floor(value) || std::abs(value) > 1e18) {
      fail("expected integer, got '" + field + "'");
    }
    return static_cast<int>(value);
  }

  void expect_arity(const std::vector<std::string>& fields, std::size_t n,
                    const char* what) const {
    if (fields.size() != n) {
      fail(std::string("'") + what + "' expects " + std::to_string(n - 1) +
           " fields");
    }
  }

  /// A per-location row: a name, then the values.
  void expect_row(const std::vector<std::string>& fields,
                  const char* what) const {
    if (fields.size() < 2) {
      fail(std::string("'") + what + "' expects a name and one value per "
                                     "location");
    }
  }

  int lookup(const std::unordered_map<std::string, int>& index,
             const std::string& name, const char* kind) const {
    const auto it = index.find(name);
    if (it == index.end()) {
      fail(std::string("unknown ") + kind + " '" + name + "'");
    }
    return it->second;
  }

  StepSchedule schedule_from(const std::vector<std::string>& fields,
                             std::size_t first) const {
    if (fields.size() <= first || (fields.size() - first) % 2 != 0) {
      fail("schedule needs (upto, price) pairs");
    }
    std::vector<PriceTier> tiers;
    for (std::size_t k = first; k + 1 < fields.size(); k += 2) {
      tiers.push_back(PriceTier{number(fields[k]), number(fields[k + 1])});
    }
    try {
      return StepSchedule(std::move(tiers));
    } catch (const InvalidInputError& e) {
      fail(e.what());
    }
  }

  std::vector<double> per_location(const std::vector<std::string>& fields,
                                   std::size_t first) const {
    if (fields.size() - first !=
        static_cast<std::size_t>(instance_.num_locations())) {
      fail("expected one value per location (" +
           std::to_string(instance_.num_locations()) + ")");
    }
    std::vector<double> values;
    for (std::size_t k = first; k < fields.size(); ++k) {
      values.push_back(number(fields[k]));
    }
    return values;
  }

  void dispatch(const std::vector<std::string>& fields) {
    const std::string& key = fields[0];
    if (key == "name") {
      expect_arity(fields, 2, "name");
      instance_.name = fields[1];
    } else if (key == "params") {
      expect_arity(fields, 6, "params");
      instance_.params.server_power_kw = number(fields[1]);
      instance_.params.servers_per_admin = number(fields[2]);
      instance_.params.vpn_link_capacity_megabits = number(fields[3]);
      instance_.params.dr_server_cost = number(fields[4]);
      instance_.params.hours_per_month = number(fields[5]);
    } else if (key == "location") {
      expect_arity(fields, 4, "location");
      location_index_[fields[1]] =
          static_cast<int>(instance_.locations.size());
      instance_.locations.push_back(
          UserLocation{fields[1], {number(fields[2]), number(fields[3])}});
    } else if (key == "site") {
      expect_arity(fields, 5, "site");
      DataCenterSite site;
      site.name = fields[1];
      site.position = {number(fields[2]), number(fields[3])};
      site.capacity_servers = integer(fields[4]);
      site_index_[fields[1]] = static_cast<int>(instance_.sites.size());
      instance_.sites.push_back(std::move(site));
      instance_.latency_ms.emplace_back();
      vpn_rows_.emplace_back();
    } else if (key == "site.space" || key == "site.power" ||
               key == "site.labor" || key == "site.wan") {
      if (fields.size() < 4) fail("schedule line too short");
      const int site = lookup(site_index_, fields[1], "site");
      auto& s = instance_.sites[static_cast<std::size_t>(site)];
      const StepSchedule schedule = schedule_from(fields, 2);
      if (key == "site.space") s.space_cost_per_server = schedule;
      else if (key == "site.power") s.power_cost_per_kwh = schedule;
      else if (key == "site.labor") s.labor_cost_per_admin = schedule;
      else s.wan_cost_per_megabit = schedule;
    } else if (key == "site.latency") {
      expect_row(fields, "site.latency");
      const int site = lookup(site_index_, fields[1], "site");
      instance_.latency_ms[static_cast<std::size_t>(site)] =
          per_location(fields, 2);
    } else if (key == "site.vpn") {
      expect_row(fields, "site.vpn");
      const int site = lookup(site_index_, fields[1], "site");
      vpn_rows_[static_cast<std::size_t>(site)] = per_location(fields, 2);
      any_vpn_ = true;
    } else if (key == "group") {
      if (fields.size() < 4) fail("'group' line too short");
      ApplicationGroup group;
      group.name = fields[1];
      group.servers = integer(fields[2]);
      group.monthly_data_megabits = number(fields[3]);
      group.users_per_location = per_location(fields, 4);
      group_index_[fields[1]] = static_cast<int>(instance_.groups.size());
      instance_.groups.push_back(std::move(group));
    } else if (key == "group.penalty") {
      if (fields.size() < 4 || fields.size() % 2 != 0) {
        fail("'group.penalty' expects (threshold, per_user) pairs");
      }
      const int group = lookup(group_index_, fields[1], "group");
      std::vector<LatencyPenaltyStep> steps;
      for (std::size_t k = 2; k + 1 < fields.size(); k += 2) {
        steps.push_back(
            LatencyPenaltyStep{number(fields[k]), number(fields[k + 1])});
      }
      try {
        instance_.groups[static_cast<std::size_t>(group)].latency_penalty =
            LatencyPenaltyFunction(std::move(steps));
      } catch (const InvalidInputError& e) {
        fail(e.what());
      }
    } else if (key == "group.allow") {
      if (fields.size() < 3) fail("'group.allow' expects sites");
      const int group = lookup(group_index_, fields[1], "group");
      auto& allowed =
          instance_.groups[static_cast<std::size_t>(group)].allowed_sites;
      for (std::size_t k = 2; k < fields.size(); ++k) {
        allowed.push_back(lookup(site_index_, fields[k], "site"));
      }
    } else if (key == "group.pin") {
      expect_arity(fields, 3, "group.pin");
      const int group = lookup(group_index_, fields[1], "group");
      instance_.groups[static_cast<std::size_t>(group)].pinned_site =
          lookup(site_index_, fields[2], "site");
    } else if (key == "separate") {
      expect_arity(fields, 3, "separate");
      instance_.separations.push_back(
          SeparationConstraint{lookup(group_index_, fields[1], "group"),
                               lookup(group_index_, fields[2], "group")});
    } else if (key == "asis") {
      expect_arity(fields, 8, "asis");
      AsIsDataCenter center;
      center.name = fields[1];
      center.position = {number(fields[2]), number(fields[3])};
      center.space_cost_per_server = number(fields[4]);
      center.wan_cost_per_megabit = number(fields[5]);
      center.power_cost_per_kwh = number(fields[6]);
      center.labor_cost_per_admin = number(fields[7]);
      asis_index_[fields[1]] =
          static_cast<int>(instance_.as_is_centers.size());
      instance_.as_is_centers.push_back(std::move(center));
      instance_.as_is_latency_ms.emplace_back();
    } else if (key == "asis.latency") {
      expect_row(fields, "asis.latency");
      const int center = lookup(asis_index_, fields[1], "as-is center");
      instance_.as_is_latency_ms[static_cast<std::size_t>(center)] =
          per_location(fields, 2);
    } else if (key == "place") {
      expect_arity(fields, 3, "place");
      placements_.emplace_back(lookup(group_index_, fields[1], "group"),
                               lookup(asis_index_, fields[2], "as-is center"));
    } else {
      fail("unknown directive '" + key + "'");
    }
  }

  void finalize() {
    // Latency rows default to zero when omitted only if locations exist and
    // the row was never set; enforce explicit rows instead.
    for (std::size_t j = 0; j < instance_.latency_ms.size(); ++j) {
      if (instance_.latency_ms[j].empty() && instance_.num_locations() > 0) {
        throw ParseError("site '" + instance_.sites[j].name +
                         "' is missing its site.latency line");
      }
    }
    if (any_vpn_) {
      instance_.use_vpn_links = true;
      for (std::size_t j = 0; j < vpn_rows_.size(); ++j) {
        if (vpn_rows_[j].empty()) {
          throw ParseError("site '" + instance_.sites[j].name +
                           "' is missing its site.vpn line (VPN mode)");
        }
      }
      instance_.vpn_link_monthly_cost = vpn_rows_;
    }
    if (!placements_.empty()) {
      instance_.as_is_placement.assign(
          static_cast<std::size_t>(instance_.num_groups()), -1);
      for (const auto& [group, center] : placements_) {
        instance_.as_is_placement[static_cast<std::size_t>(group)] = center;
        instance_.as_is_centers[static_cast<std::size_t>(center)].servers +=
            instance_.groups[static_cast<std::size_t>(group)].servers;
      }
      for (int i = 0; i < instance_.num_groups(); ++i) {
        if (instance_.as_is_placement[static_cast<std::size_t>(i)] < 0) {
          throw ParseError(
              "group '" + instance_.groups[static_cast<std::size_t>(i)].name +
              "' has no 'place' line (all groups need one when any has)");
        }
      }
    }
    // As-is latency rows are optional as a block: all empty -> drop.
    bool any_asis_latency = false;
    for (const auto& row : instance_.as_is_latency_ms) {
      any_asis_latency |= !row.empty();
    }
    if (!any_asis_latency) {
      instance_.as_is_latency_ms.clear();
    } else {
      for (std::size_t d = 0; d < instance_.as_is_latency_ms.size(); ++d) {
        if (instance_.as_is_latency_ms[d].empty()) {
          throw ParseError("as-is center '" +
                           instance_.as_is_centers[d].name +
                           "' is missing its asis.latency line");
        }
      }
    }
  }

  LineReader lines_;
  ConsolidationInstance instance_;
  std::unordered_map<std::string, int> location_index_;
  std::unordered_map<std::string, int> site_index_;
  std::unordered_map<std::string, int> group_index_;
  std::unordered_map<std::string, int> asis_index_;
  std::vector<std::vector<Money>> vpn_rows_;
  std::vector<std::pair<int, int>> placements_;
  bool any_vpn_ = false;
};

}  // namespace

std::string write_instance(const ConsolidationInstance& instance) {
  validate_instance(instance);
  std::string out;
  // Generous: about 24 bytes per number or name (the texts average 12).
  // The result is trimmed to size before it is returned.
  const std::size_t row = instance.locations.size() + 8;
  out.reserve(1024 + 24 * row *
                         (instance.sites.size() * 2 + instance.groups.size() +
                          instance.as_is_centers.size()));
  out += "etransform-instance v1\nname ";
  append_name(out, instance.name);
  out += "\nparams";
  const auto& p = instance.params;
  for (const double value :
       {p.server_power_kw, p.servers_per_admin, p.vpn_link_capacity_megabits,
        p.dr_server_cost, p.hours_per_month}) {
    number_field(out, value);
  }
  out += '\n';
  for (const auto& location : instance.locations) {
    out += "location ";
    append_name(out, location.name);
    number_field(out, location.position.x);
    number_field(out, location.position.y);
    out += '\n';
  }
  const std::vector<std::string> site_names = sanitized_names(instance.sites);
  const std::vector<std::string> group_names =
      sanitized_names(instance.groups);
  const std::vector<std::string> center_names =
      sanitized_names(instance.as_is_centers);
  for (int j = 0; j < instance.num_sites(); ++j) {
    const auto& site = instance.sites[static_cast<std::size_t>(j)];
    const std::string& name = site_names[static_cast<std::size_t>(j)];
    out += "site";
    text_field(out, name);
    number_field(out, site.position.x);
    number_field(out, site.position.y);
    int_field(out, site.capacity_servers);
    out += '\n';
    write_schedule(out, "site.space", name, site.space_cost_per_server);
    write_schedule(out, "site.power", name, site.power_cost_per_kwh);
    write_schedule(out, "site.labor", name, site.labor_cost_per_admin);
    write_schedule(out, "site.wan", name, site.wan_cost_per_megabit);
    out += "site.latency";
    text_field(out, name);
    for (const double ms : instance.latency_ms[static_cast<std::size_t>(j)]) {
      number_field(out, ms);
    }
    out += '\n';
    if (instance.use_vpn_links) {
      out += "site.vpn";
      text_field(out, name);
      for (const double cost :
           instance.vpn_link_monthly_cost[static_cast<std::size_t>(j)]) {
        number_field(out, cost);
      }
      out += '\n';
    }
  }
  for (int i = 0; i < instance.num_groups(); ++i) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    const std::string& name = group_names[static_cast<std::size_t>(i)];
    out += "group";
    text_field(out, name);
    int_field(out, group.servers);
    number_field(out, group.monthly_data_megabits);
    for (const double users : group.users_per_location) {
      number_field(out, users);
    }
    out += '\n';
    if (!group.latency_penalty.is_insensitive()) {
      out += "group.penalty";
      text_field(out, name);
      for (const auto& step : group.latency_penalty.steps()) {
        number_field(out, step.threshold_ms);
        number_field(out, step.penalty_per_user);
      }
      out += '\n';
    }
    if (!group.allowed_sites.empty()) {
      out += "group.allow";
      text_field(out, name);
      for (const int site : group.allowed_sites) {
        text_field(out, site_names[static_cast<std::size_t>(site)]);
      }
      out += '\n';
    }
    if (group.pinned_site >= 0) {
      out += "group.pin";
      text_field(out, name);
      text_field(out,
                 site_names[static_cast<std::size_t>(group.pinned_site)]);
      out += '\n';
    }
  }
  for (const auto& sep : instance.separations) {
    out += "separate";
    text_field(out, group_names[static_cast<std::size_t>(sep.group_a)]);
    text_field(out, group_names[static_cast<std::size_t>(sep.group_b)]);
    out += '\n';
  }
  for (std::size_t d = 0; d < instance.as_is_centers.size(); ++d) {
    const auto& center = instance.as_is_centers[d];
    const std::string& name = center_names[d];
    out += "asis";
    text_field(out, name);
    for (const double value :
         {center.position.x, center.position.y, center.space_cost_per_server,
          center.wan_cost_per_megabit, center.power_cost_per_kwh,
          center.labor_cost_per_admin}) {
      number_field(out, value);
    }
    out += '\n';
    if (!instance.as_is_latency_ms.empty()) {
      out += "asis.latency";
      text_field(out, name);
      for (const double ms : instance.as_is_latency_ms[d]) {
        number_field(out, ms);
      }
      out += '\n';
    }
  }
  for (std::size_t i = 0; i < instance.as_is_placement.size(); ++i) {
    out += "place";
    text_field(out, group_names[i]);
    text_field(out, center_names[static_cast<std::size_t>(
                        instance.as_is_placement[i])]);
    out += '\n';
  }
  out += "end\n";
  // The daemon keeps this text for a job's lifetime; hold no slack.
  out.shrink_to_fit();
  return out;
}

void write_instance(const ConsolidationInstance& instance,
                    std::ostream& out) {
  out << write_instance(instance);
}

ConsolidationInstance parse_instance(const std::string& text) {
  Parser parser(text);
  return parser.run();
}

ConsolidationInstance parse_instance(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_instance(buffer.str());
}

std::string write_horizon(const PlanningHorizon& horizon,
                          const ConsolidationInstance& instance) {
  validate_horizon(instance, horizon);
  std::string out = "etransform-horizon v1\n";
  if (horizon.migration_cost_per_server != 0.0) {
    out += "migration_cost";
    number_field(out, horizon.migration_cost_per_server);
    out += '\n';
  }
  for (std::size_t t = 0; t < horizon.periods.size(); ++t) {
    const auto& period = horizon.periods[t];
    const std::string name =
        sanitize_name(horizon.period_name(static_cast<int>(t)));
    out += "period";
    text_field(out, name);
    number_field(out, period.weight);
    number_field(out, period.multiplier);
    out += '\n';
    if (!period.group_multipliers.empty()) {
      out += "period.group_multipliers";
      text_field(out, name);
      for (const double m : period.group_multipliers) number_field(out, m);
      out += '\n';
    }
    if (!period.failed_sites.empty()) {
      out += "period.fail";
      text_field(out, name);
      for (const int j : period.failed_sites) {
        text_field(out, sanitize_name(
                            instance.sites[static_cast<std::size_t>(j)].name));
      }
      out += '\n';
    }
  }
  out += "end\n";
  return out;
}

PlanningHorizon parse_horizon(const std::string& text,
                              const ConsolidationInstance& instance) {
  std::unordered_map<std::string, int> site_index;
  for (int j = 0; j < instance.num_sites(); ++j) {
    site_index[sanitize_name(
        instance.sites[static_cast<std::size_t>(j)].name)] = j;
  }
  std::unordered_map<std::string, int> period_index;
  PlanningHorizon horizon;
  LineReader lines(text);
  bool saw_header = false;
  bool saw_end = false;
  const auto fail = [&](const std::string& what) -> void {
    throw ParseError("horizon line " + std::to_string(lines.line_number()) +
                     ": " + what);
  };
  const auto number = [&](const std::string& field) {
    const std::optional<double> value = parse_double(field);
    if (!value) fail("bad number '" + field + "'");
    return *value;
  };
  const auto period_at = [&](const std::string& name) -> DemandPeriod& {
    const auto it = period_index.find(name);
    if (it == period_index.end()) fail("unknown period '" + name + "'");
    return horizon.periods[static_cast<std::size_t>(it->second)];
  };
  while (lines.next()) {
    const std::vector<std::string>& fields = lines.fields();
    if (fields.empty()) continue;
    if (!saw_header) {
      if (fields.size() < 2 || fields[0] != "etransform-horizon" ||
          fields[1] != "v1") {
        fail("file must start with 'etransform-horizon v1'");
      }
      saw_header = true;
      continue;
    }
    if (saw_end) fail("content after 'end'");
    const std::string& key = fields[0];
    if (key == "end") {
      saw_end = true;
    } else if (key == "migration_cost") {
      if (fields.size() != 2) fail("'migration_cost' expects one field");
      horizon.migration_cost_per_server = number(fields[1]);
    } else if (key == "period") {
      if (fields.size() != 4) {
        fail("'period' expects <name> <weight> <multiplier>");
      }
      if (period_index.count(fields[1]) != 0) {
        fail("duplicate period '" + fields[1] + "'");
      }
      DemandPeriod period;
      period.name = fields[1];
      period.weight = number(fields[2]);
      period.multiplier = number(fields[3]);
      period_index[fields[1]] = static_cast<int>(horizon.periods.size());
      horizon.periods.push_back(std::move(period));
    } else if (key == "period.group_multipliers") {
      if (fields.size() < 3) fail("'period.group_multipliers' too short");
      DemandPeriod& period = period_at(fields[1]);
      if (fields.size() - 2 !=
          static_cast<std::size_t>(instance.num_groups())) {
        fail("expected one multiplier per group (" +
             std::to_string(instance.num_groups()) + ")");
      }
      period.group_multipliers.clear();
      for (std::size_t k = 2; k < fields.size(); ++k) {
        period.group_multipliers.push_back(number(fields[k]));
      }
    } else if (key == "period.fail") {
      if (fields.size() < 3) fail("'period.fail' expects site names");
      DemandPeriod& period = period_at(fields[1]);
      for (std::size_t k = 2; k < fields.size(); ++k) {
        const auto it = site_index.find(fields[k]);
        if (it == site_index.end()) {
          fail("unknown site '" + fields[k] + "'");
        }
        period.failed_sites.push_back(it->second);
      }
    } else {
      fail("unknown directive '" + key + "'");
    }
  }
  if (!saw_header) fail("empty file");
  if (!saw_end) fail("missing 'end'");
  validate_horizon(instance, horizon);
  return horizon;
}

}  // namespace etransform
