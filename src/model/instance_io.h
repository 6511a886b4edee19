// Text serialization of ConsolidationInstance.
//
// A line-oriented format (the ".etf" file) so estates can be authored in a
// spreadsheet-adjacent workflow, versioned, and fed to the CLI planner —
// the "USER INPUT" box of the paper's Fig. 5. Sections:
//
//   etransform-instance v1
//   name <string>
//   params <power_kw> <servers_per_admin> <vpn_capacity_mb> <dr_cost> <hours>
//   location <name> <x> <y>
//   site <name> <x> <y> <capacity>
//   site.space <site> <upto|inf> <price> [<upto|inf> <price> ...]
//   site.power <site> ...        site.labor <site> ...   site.wan <site> ...
//   site.latency <site> <ms per location...>
//   site.vpn <site> <monthly link cost per location...>
//   group <name> <servers> <data_mb> <users per location...>
//   group.penalty <group> <threshold_ms> <per_user> [...more steps]
//   group.allow <group> <site> [<site> ...]
//   group.pin <group> <site>
//   separate <groupA> <groupB>
//   asis <name> <x> <y> <space> <wan> <power> <labor>
//   asis.latency <asis> <ms per location...>
//   place <group> <asis>
//   end
//
// '#' starts a comment. Entities are referenced by name; definitions must
// precede references. write_instance -> parse_instance is a fixed point
// (tested), and parse always returns a validated instance.
//
// Byte stability. etransformd hashes write_instance's text as its cache
// key, so the writer's bytes are a contract, pinned by golden digests in
// server_test:
//   - every number is the %.12g spelling when that reads back to the same
//     double, else %.17g (append_round_trip in common/strings.h);
//   - names have whitespace and '#' replaced by '_' (an empty name is "_");
//   - one space between fields, '\n' after every line, no comments, and
//     directives in the order listed above.
// Any text that parses reaches a byte fixed point after one write. Numbers
// are read as std::stod reads them with every character used (parse_double
// in common/strings.h): a subnormal, underflowing or overflowing value is a
// "bad number".
//
// Multi-period demand timelines (model/horizon.h) have a companion
// line-oriented format (the ".etfh" file, CLI --traffic-curve):
//
//   etransform-horizon v1
//   migration_cost <per-server rate>
//   period <name> <weight_months|0> <multiplier>
//   period.group_multipliers <period> <m per group...>
//   period.fail <period> <site name> [<site name> ...]
//   end
//
// Horizons reference the instance they scale: site names resolve against it
// and per-group multiplier rows must match its group count, so parsing takes
// the instance.
#pragma once

#include <iosfwd>
#include <string>

#include "model/entities.h"
#include "model/horizon.h"

namespace etransform {

/// Serializes `instance` (validated first; throws on malformed input).
[[nodiscard]] std::string write_instance(const ConsolidationInstance& instance);
void write_instance(const ConsolidationInstance& instance, std::ostream& out);

/// Parses the .etf format. Throws ParseError with a line number on
/// malformed text, and InvalidInputError/InfeasibleError when the parsed
/// instance fails validation.
[[nodiscard]] ConsolidationInstance parse_instance(const std::string& text);
[[nodiscard]] ConsolidationInstance parse_instance(std::istream& in);

/// Serializes `horizon` in the .etfh format (validated against `instance`
/// first; failed sites are written by name).
[[nodiscard]] std::string write_horizon(const PlanningHorizon& horizon,
                                        const ConsolidationInstance& instance);

/// Parses the .etfh format against `instance` (site-name resolution and
/// group-count checks). Throws ParseError with a line number on malformed
/// text and InvalidInputError when the horizon fails validation.
[[nodiscard]] PlanningHorizon parse_horizon(
    const std::string& text, const ConsolidationInstance& instance);

}  // namespace etransform
