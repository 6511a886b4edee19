# Compares a fresh bench_solver_perf JSON run against the committed baseline
# (BENCH_solver.json at the repo root) and fails when the branch-and-bound
# node count or total LP iteration count of any matching BM_BranchAndBound*
# configuration — the assignment MILPs and the deterministic time-expanded
# multi-period solves — differs at all, when the open-node peak
# (open_nodes_peak, on the rows whose baseline carries it) differs at all,
# or when the heuristic planner's deterministic counters
# (BM_HeuristicFederal) differ at all. Node, lp_iters and open-node counts
# are deterministic (unlike timings), so an exact fence is safe in CI: a
# change that moves one pivot or one node of the search shows here and
# must regenerate BENCH_solver.json with a stated reason. Driven by the
# bench-smoke job:
#   cmake -DCURRENT=<fresh.json> -DBASELINE=<BENCH_solver.json> \
#         -P check_bench_regression.cmake
#
# When the machine that produced CURRENT has at least 8 CPUs, the parallel
# tree search's 8-thread run of BM_BranchAndBoundAssignmentThreads must also
# clear a minimum real-time speedup over its 1-thread run (SPEEDUP_MIN,
# default 4x). On smaller runners the fence is reported but not enforced —
# a 1-CPU container cannot express an 8-way speedup.
# Requires CMake >= 3.19 for string(JSON).
cmake_minimum_required(VERSION 3.19)

if(NOT DEFINED CURRENT OR NOT DEFINED BASELINE)
  message(FATAL_ERROR "usage: cmake -DCURRENT=<fresh.json> "
                      "-DBASELINE=<baseline.json> -P check_bench_regression.cmake")
endif()

file(READ "${CURRENT}" current_json)
file(READ "${BASELINE}" baseline_json)

# google-benchmark writes counters in scientific notation
# ("7.6400000000000000e+02"). math(EXPR) is integer-only, so normalize a
# whole-valued counter to a plain integer: split mantissa/exponent, trim the
# trailing zeros of the fraction, and shift the decimal point.
function(parse_counter value out)
  if(value MATCHES "^([0-9]+)(\\.([0-9]*))?([eE]\\+?(-?[0-9]+))?$")
    set(whole "${CMAKE_MATCH_1}")
    set(frac "${CMAKE_MATCH_3}")
    set(exponent "${CMAKE_MATCH_5}")
    if(exponent STREQUAL "")
      set(exponent 0)
    endif()
    string(REGEX REPLACE "0+$" "" frac "${frac}")
    string(LENGTH "${frac}" frac_len)
    math(EXPR shift "${exponent} - ${frac_len}")
    if(shift LESS 0)
      message(FATAL_ERROR "counter '${value}' is not a whole number")
    endif()
    string(REPEAT "0" ${shift} zeros)
    set(digits "${whole}${frac}${zeros}")
    math(EXPR digits "${digits} + 0")  # canonicalize (drops leading zeros)
    set(${out} "${digits}" PARENT_SCOPE)
  else()
    message(FATAL_ERROR "unparseable counter value '${value}'")
  endif()
endfunction()

# True in ${out} when benchmark row ${i} of ${json} is a per-iteration run.
function(is_iteration_row json i out)
  string(JSON run_type ERROR_VARIABLE json_err GET "${json}" "benchmarks" ${i}
         "run_type")
  if(json_err STREQUAL "NOTFOUND" AND NOT run_type STREQUAL "iteration")
    set(${out} FALSE PARENT_SCOPE)
  else()
    set(${out} TRUE PARENT_SCOPE)
  endif()
endfunction()

# Index the baseline: benchmark name -> {nodes, lp_iters, open_nodes_peak}
# counts. A baseline taken with --benchmark_repetitions also holds
# mean/median/stddev/cv rows; only the per-iteration rows are indexed.
string(JSON baseline_count LENGTH "${baseline_json}" "benchmarks")
math(EXPR baseline_last "${baseline_count} - 1")
foreach(i RANGE ${baseline_last})
  string(JSON name GET "${baseline_json}" "benchmarks" ${i} "name")
  is_iteration_row("${baseline_json}" ${i} iteration)
  if(NOT iteration)
    continue()
  endif()
  string(MD5 key "${name}")
  foreach(counter nodes lp_iters open_nodes_peak)
    string(JSON value ERROR_VARIABLE json_err GET "${baseline_json}"
           "benchmarks" ${i} "${counter}")
    if(json_err STREQUAL "NOTFOUND")
      parse_counter("${value}" value_int)
      set(baseline_${counter}_${key} "${value_int}")
    endif()
  endforeach()
endforeach()

string(JSON current_count LENGTH "${current_json}" "benchmarks")
math(EXPR current_last "${current_count} - 1")
set(checked 0)
foreach(i RANGE ${current_last})
  string(JSON name GET "${current_json}" "benchmarks" ${i} "name")
  if(NOT name MATCHES "^BM_BranchAndBound")
    continue()
  endif()
  string(JSON nodes ERROR_VARIABLE json_err GET "${current_json}"
         "benchmarks" ${i} "nodes")
  if(NOT json_err STREQUAL "NOTFOUND")
    continue()
  endif()
  string(MD5 key "${name}")
  if(NOT DEFINED baseline_nodes_${key})
    message(STATUS "no baseline for ${name}; skipping (new configuration)")
    continue()
  endif()
  foreach(counter nodes lp_iters open_nodes_peak)
    if(NOT DEFINED baseline_${counter}_${key})
      continue()
    endif()
    string(JSON value ERROR_VARIABLE json_err GET "${current_json}"
           "benchmarks" ${i} "${counter}")
    if(NOT json_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "${name} lost its '${counter}' counter")
    endif()
    parse_counter("${value}" current_value)
    if(NOT current_value STREQUAL baseline_${counter}_${key})
      message(FATAL_ERROR
              "${counter} changed in ${name}: ${current_value} vs "
              "baseline ${baseline_${counter}_${key}}. The search is "
              "deterministic; if it legitimately changed, regenerate "
              "BENCH_solver.json.")
    endif()
    message(STATUS "${name}: ${current_value} ${counter} "
                   "(matches baseline)")
  endforeach()
  math(EXPR checked "${checked} + 1")
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no branch-and-bound node counters matched the "
                      "baseline; name scheme drift?")
endif()

message(STATUS "bench regression check OK: ${checked} configurations match "
               "the committed node, lp_iters and open-node counts")

# ---------------------------------------------------------------------------
# Heuristic planner fence: BM_HeuristicFederal's seeds_raced,
# moves_committed and objective are deterministic, so they must match the
# baseline exactly (CMake prints JSON numbers with 17 significant digits,
# so equal strings mean equal doubles). Only per-iteration rows are compared.

set(exact_counters seeds_raced moves_committed objective)

foreach(i RANGE ${baseline_last})
  string(JSON name GET "${baseline_json}" "benchmarks" ${i} "name")
  is_iteration_row("${baseline_json}" ${i} iteration)
  if(NOT name MATCHES "^BM_HeuristicFederal" OR NOT iteration)
    continue()
  endif()
  string(MD5 key "${name}")
  foreach(counter ${exact_counters})
    string(JSON value GET "${baseline_json}" "benchmarks" ${i} "${counter}")
    set(exact_${counter}_${key} "${value}")
  endforeach()
endforeach()

set(exact_checked 0)
foreach(i RANGE ${current_last})
  string(JSON name GET "${current_json}" "benchmarks" ${i} "name")
  is_iteration_row("${current_json}" ${i} iteration)
  if(NOT name MATCHES "^BM_HeuristicFederal" OR NOT iteration)
    continue()
  endif()
  string(MD5 key "${name}")
  foreach(counter ${exact_counters})
    if(NOT DEFINED exact_${counter}_${key})
      message(FATAL_ERROR "${name}: no baseline '${counter}'; regenerate "
                          "BENCH_solver.json")
    endif()
    string(JSON value ERROR_VARIABLE json_err GET "${current_json}"
           "benchmarks" ${i} "${counter}")
    if(NOT json_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "${name} lost its '${counter}' counter")
    endif()
    if(NOT value STREQUAL exact_${counter}_${key})
      message(FATAL_ERROR
              "${counter} changed in ${name}: ${value} vs baseline "
              "${exact_${counter}_${key}}. The heuristic planner is "
              "deterministic; if its search legitimately changed, "
              "regenerate BENCH_solver.json.")
    endif()
    message(STATUS "${name}: ${counter} = ${value} (matches baseline)")
  endforeach()
  math(EXPR exact_checked "${exact_checked} + 1")
endforeach()

if(exact_checked EQUAL 0)
  message(FATAL_ERROR "no BM_HeuristicFederal run to check against the "
                      "baseline; name scheme drift?")
endif()

# ---------------------------------------------------------------------------
# Parallel tree-search speedup fence.

if(NOT DEFINED SPEEDUP_MIN)
  set(SPEEDUP_MIN 4)
endif()

# Parses a google-benchmark float ("2.6798632743279554e+05") into integer
# nanoseconds, truncating sub-nanosecond digits. Unlike parse_counter this
# accepts negative decimal shifts, which timing values always have.
function(parse_time_ns value out)
  if(NOT value MATCHES "^([0-9]+)(\\.([0-9]*))?([eE]\\+?(-?[0-9]+))?$")
    message(FATAL_ERROR "unparseable time value '${value}'")
  endif()
  set(whole "${CMAKE_MATCH_1}")
  set(frac "${CMAKE_MATCH_3}")
  set(exponent "${CMAKE_MATCH_5}")
  if(exponent STREQUAL "")
    set(exponent 0)
  endif()
  string(LENGTH "${frac}" frac_len)
  set(digits "${whole}${frac}")
  math(EXPR shift "${exponent} - ${frac_len}")
  if(shift GREATER_EQUAL 0)
    string(REPEAT "0" ${shift} zeros)
    set(digits "${digits}${zeros}")
  else()
    math(EXPR drop "0 - ${shift}")
    string(LENGTH "${digits}" digits_len)
    if(drop GREATER_EQUAL digits_len)
      set(digits 0)
    else()
      math(EXPR keep "${digits_len} - ${drop}")
      string(SUBSTRING "${digits}" 0 ${keep} digits)
    endif()
  endif()
  math(EXPR digits "${digits} + 0")  # canonicalize (drops leading zeros)
  set(${out} "${digits}" PARENT_SCOPE)
endfunction()

string(JSON num_cpus ERROR_VARIABLE cpus_err GET "${current_json}"
       "context" "num_cpus")
if(NOT cpus_err STREQUAL "NOTFOUND")
  set(num_cpus 0)
endif()

set(threads_rt_1 "")
set(threads_rt_8 "")
foreach(i RANGE ${current_last})
  string(JSON name GET "${current_json}" "benchmarks" ${i} "name")
  is_iteration_row("${current_json}" ${i} iteration)
  if(NOT name MATCHES "^BM_BranchAndBoundAssignmentThreads/" OR NOT iteration)
    continue()
  endif()
  string(JSON rt GET "${current_json}" "benchmarks" ${i} "real_time")
  if(name MATCHES "threads:1(/|$)")
    parse_time_ns("${rt}" threads_rt_1)
  elseif(name MATCHES "threads:8(/|$)")
    parse_time_ns("${rt}" threads_rt_8)
  endif()
endforeach()

if(threads_rt_1 STREQUAL "" OR threads_rt_8 STREQUAL "")
  message(STATUS "speedup fence: thread-scaling benchmarks absent from this "
                 "run; skipping")
elseif(threads_rt_8 EQUAL 0)
  message(FATAL_ERROR "speedup fence: 8-thread real_time parsed as 0ns")
else()
  # Integer-only speedup in hundredths (e.g. 412 = 4.12x).
  math(EXPR speedup_x100 "${threads_rt_1} * 100 / ${threads_rt_8}")
  math(EXPR speedup_whole "${speedup_x100} / 100")
  math(EXPR speedup_frac "${speedup_x100} % 100")
  string(LENGTH "${speedup_frac}" frac_width)
  if(frac_width EQUAL 1)
    set(speedup_frac "0${speedup_frac}")
  endif()
  math(EXPR required_x100 "${SPEEDUP_MIN} * 100")
  if(num_cpus GREATER_EQUAL 8)
    if(speedup_x100 LESS required_x100)
      message(FATAL_ERROR
              "parallel speedup regression: 8-thread tree search is "
              "${speedup_whole}.${speedup_frac}x over 1 thread "
              "(minimum ${SPEEDUP_MIN}x on this ${num_cpus}-CPU machine)")
    endif()
    message(STATUS "speedup fence OK: 8 threads = "
                   "${speedup_whole}.${speedup_frac}x over 1 thread "
                   "(minimum ${SPEEDUP_MIN}x, ${num_cpus} CPUs)")
  else()
    message(STATUS "speedup fence: 8 threads = "
                   "${speedup_whole}.${speedup_frac}x over 1 thread; not "
                   "enforced on a ${num_cpus}-CPU machine (needs >= 8)")
  endif()
endif()
