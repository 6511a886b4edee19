# Runs etransform_cli plan --stats-json and validates that the emitted file
# is well-formed JSON with the expected solve-stats shape (per-phase wall
# times and counters). Driven by ctest:
#   cmake -DCLI=<path> -DWORK_DIR=<dir> -P validate_stats_json.cmake
# Requires CMake >= 3.19 for string(JSON).
cmake_minimum_required(VERSION 3.19)

if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<etransform_cli> -DWORK_DIR=<dir> "
                      "-P validate_stats_json.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(instance "${WORK_DIR}/stats_check.etf")
set(stats_json "${WORK_DIR}/stats_check.json")

execute_process(
  COMMAND "${CLI}" generate enterprise1 -o "${instance}"
  RESULT_VARIABLE generate_result)
if(NOT generate_result EQUAL 0)
  message(FATAL_ERROR "etransform_cli generate failed (${generate_result})")
endif()

# Heuristic engine keeps the check fast; the stats tree still carries the
# planner/heuristic/local-search phases.
execute_process(
  COMMAND "${CLI}" plan "${instance}" --engine heuristic
          --stats-json "${stats_json}"
  RESULT_VARIABLE plan_result
  OUTPUT_QUIET)
if(NOT plan_result EQUAL 0)
  message(FATAL_ERROR "etransform_cli plan failed (${plan_result})")
endif()

file(READ "${stats_json}" stats)

# string(JSON) fails the script with a clear message on malformed JSON.
string(JSON root_name GET "${stats}" "name")
if(NOT root_name STREQUAL "planner")
  message(FATAL_ERROR "root stats name is '${root_name}', want 'planner'")
endif()

string(JSON wall_ms GET "${stats}" "wall_ms")
if(wall_ms LESS_EQUAL 0)
  message(FATAL_ERROR "planner wall_ms is '${wall_ms}', want > 0")
endif()

string(JSON child_count LENGTH "${stats}" "children")
if(child_count LESS 1)
  message(FATAL_ERROR "planner stats has no child phases")
endif()

# Every child phase must carry a numeric wall time.
math(EXPR last "${child_count} - 1")
foreach(i RANGE ${last})
  string(JSON phase_name GET "${stats}" "children" ${i} "name")
  string(JSON phase_wall GET "${stats}" "children" ${i} "wall_ms")
  if(phase_wall LESS 0)
    message(FATAL_ERROR "phase '${phase_name}' has negative wall_ms")
  endif()
endforeach()

message(STATUS "stats JSON OK: ${child_count} phases under '${root_name}'")

# Second run: the exact engine must surface the revised-simplex counters
# (factorizations, eta file, pricing, warm starts) under
# planner -> branch_and_bound -> simplex. A short time limit keeps the check
# cheap; the root LP relaxation alone populates every counter.
set(exact_json "${WORK_DIR}/stats_check_exact.json")
execute_process(
  COMMAND "${CLI}" plan "${instance}" --engine exact --time-limit 2000
          --stats-json "${exact_json}"
  RESULT_VARIABLE exact_result
  OUTPUT_QUIET)
if(NOT exact_result EQUAL 0)
  message(FATAL_ERROR "etransform_cli plan --engine exact failed (${exact_result})")
endif()

file(READ "${exact_json}" exact_stats)

# Locate the branch_and_bound phase, then its simplex child.
string(JSON exact_children LENGTH "${exact_stats}" "children")
set(bnb "")
math(EXPR exact_last "${exact_children} - 1")
foreach(i RANGE ${exact_last})
  string(JSON phase_name GET "${exact_stats}" "children" ${i} "name")
  if(phase_name STREQUAL "branch_and_bound")
    string(JSON bnb GET "${exact_stats}" "children" ${i})
  endif()
endforeach()
if(bnb STREQUAL "")
  message(FATAL_ERROR "exact-engine stats missing 'branch_and_bound' phase")
endif()

string(JSON bnb_children LENGTH "${bnb}" "children")
set(simplex "")
math(EXPR bnb_last "${bnb_children} - 1")
foreach(i RANGE ${bnb_last})
  string(JSON child_name GET "${bnb}" "children" ${i} "name")
  if(child_name STREQUAL "simplex")
    string(JSON simplex GET "${bnb}" "children" ${i})
  endif()
endforeach()
if(simplex STREQUAL "")
  message(FATAL_ERROR "branch_and_bound stats missing 'simplex' child")
endif()

# The counters must exist and be coherent: at least one solve happened, every
# solve refactorizes at least once, and pricing did *something*.
foreach(metric calls pivots refactorizations etas eta_entries
        pricing_candidate_hits pricing_full_scans warm_starts
        dual_pivots bound_flips dual_solves factorize_ms pivot_row_entries
        ratio_test_sorts)
  string(JSON value ERROR_VARIABLE json_err GET "${simplex}" "metrics" "${metric}")
  if(NOT json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "simplex stats missing metric '${metric}'")
  endif()
  if(value LESS 0)
    message(FATAL_ERROR "simplex metric '${metric}' is negative (${value})")
  endif()
  set(simplex_${metric} "${value}")
endforeach()
if(simplex_calls LESS 1)
  message(FATAL_ERROR "simplex 'calls' is ${simplex_calls}, want >= 1")
endif()
if(simplex_refactorizations LESS ${simplex_calls})
  message(FATAL_ERROR "simplex refactorizations (${simplex_refactorizations}) "
                      "< calls (${simplex_calls}); every solve factorizes once")
endif()
# Every factorization is timed, and every dual pivot builds a pivot row
# from at least one matrix entry.
if(NOT simplex_factorize_ms GREATER 0)
  message(FATAL_ERROR "simplex 'factorize_ms' is ${simplex_factorize_ms}, "
                      "want > 0 after ${simplex_refactorizations} "
                      "factorizations")
endif()
if(simplex_pivot_row_entries LESS ${simplex_dual_pivots})
  message(FATAL_ERROR "simplex pivot_row_entries (${simplex_pivot_row_entries}) "
                      "< dual_pivots (${simplex_dual_pivots})")
endif()
# Only a dual pivot runs the ratio test, so at most every one sorted.
if(simplex_ratio_test_sorts GREATER ${simplex_dual_pivots})
  message(FATAL_ERROR "simplex ratio_test_sorts (${simplex_ratio_test_sorts}) "
                      "> dual_pivots (${simplex_dual_pivots})")
endif()
math(EXPR pricing_total
     "${simplex_pricing_candidate_hits} + ${simplex_pricing_full_scans}")
if(pricing_total LESS 1)
  message(FATAL_ERROR "simplex pricing counters are all zero")
endif()

message(STATUS "exact-engine stats OK: ${simplex_calls} simplex calls, "
               "${simplex_pivots} pivots, "
               "${simplex_refactorizations} refactorizations in "
               "${simplex_factorize_ms} ms, "
               "${simplex_pivot_row_entries} pivot-row entries")

# The cut-and-branch pipeline must be visible in the same tree: a 'cuts'
# child under branch_and_bound with the round/pool tallies, plus the
# pseudocost branching counters on the branch_and_bound node itself.
foreach(metric nodes strong_branch_probes pseudocost_updates)
  string(JSON value ERROR_VARIABLE json_err GET "${bnb}" "metrics" "${metric}")
  if(NOT json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "branch_and_bound stats missing metric '${metric}'")
  endif()
  if(value LESS 0)
    message(FATAL_ERROR "branch_and_bound metric '${metric}' is negative "
                        "(${value})")
  endif()
  set(bnb_${metric} "${value}")
endforeach()

set(cuts "")
foreach(i RANGE ${bnb_last})
  string(JSON child_name GET "${bnb}" "children" ${i} "name")
  if(child_name STREQUAL "cuts")
    string(JSON cuts GET "${bnb}" "children" ${i})
  endif()
endforeach()
if(cuts STREQUAL "")
  message(FATAL_ERROR "branch_and_bound stats missing 'cuts' child "
                      "(cut separation runs at the root by default)")
endif()

foreach(metric rounds generated applied purged)
  string(JSON value ERROR_VARIABLE json_err GET "${cuts}" "metrics" "${metric}")
  if(NOT json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "cuts stats missing metric '${metric}'")
  endif()
  if(value LESS 0)
    message(FATAL_ERROR "cuts metric '${metric}' is negative (${value})")
  endif()
  set(cuts_${metric} "${value}")
endforeach()
if(cuts_rounds LESS 1)
  message(FATAL_ERROR "cuts 'rounds' is ${cuts_rounds}, want >= 1 (the root "
                      "relaxation of this instance is fractional)")
endif()

message(STATUS "cut/branching stats OK: ${cuts_rounds} cut rounds, "
               "${cuts_generated} generated / ${cuts_applied} applied / "
               "${cuts_purged} purged; ${bnb_strong_branch_probes} probes, "
               "${bnb_pseudocost_updates} pseudocost updates over "
               "${bnb_nodes} nodes")
