# Validates that etransform_cli --lp-out writes the model the planner
# solves. On enterprise1: the static model has 2,040 columns, 360 rows and
# the classic unsuffixed names; --horizon 2 writes per-period "_p<t>" names;
# --horizon 2 --static-horizon shares one unsuffixed x_ block across both
# periods. Driven by ctest:
#   cmake -DCLI=<path> -DWORK_DIR=<dir> -P validate_cli_lp_out.cmake
cmake_minimum_required(VERSION 3.19)

if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<etransform_cli> -DWORK_DIR=<dir> "
                      "-P validate_cli_lp_out.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(instance "${WORK_DIR}/enterprise1.etf")

execute_process(
  COMMAND "${CLI}" generate enterprise1 -o "${instance}"
  RESULT_VARIABLE generate_result
  OUTPUT_QUIET)
if(NOT generate_result EQUAL 0)
  message(FATAL_ERROR "etransform_cli generate failed (${generate_result})")
endif()

# Plans `instance` with the extra flags, writes the model to
# ${WORK_DIR}/<name>.lp, and sets <name>_lp (file text) and <name>_size
# ("<vars> vars, <rows> rows" from the CLI's report). The model is written
# before planning starts, so only the heuristic runs must also plan cleanly.
function(write_model name check_result)
  set(lp_file "${WORK_DIR}/${name}.lp")
  file(REMOVE "${lp_file}")
  execute_process(
    COMMAND "${CLI}" plan "${instance}" ${ARGN} --lp-out "${lp_file}"
    RESULT_VARIABLE plan_result
    OUTPUT_QUIET
    ERROR_VARIABLE plan_err)
  if(check_result AND NOT plan_result EQUAL 0)
    message(FATAL_ERROR "plan ${ARGN} failed (${plan_result}): ${plan_err}")
  endif()
  if(NOT plan_err MATCHES "MILP written to [^\n]* \\(([0-9]+ vars, [0-9]+ rows)\\)")
    message(FATAL_ERROR "plan ${ARGN}: no 'MILP written' report: ${plan_err}")
  endif()
  set(${name}_size "${CMAKE_MATCH_1}" PARENT_SCOPE)
  file(READ "${lp_file}" text)
  set(${name}_lp "${text}" PARENT_SCOPE)
  message(STATUS "${name}: ${CMAKE_MATCH_1}")
endfunction()

write_model(static TRUE --engine heuristic)
if(NOT static_size STREQUAL "2040 vars, 360 rows")
  message(FATAL_ERROR "static model has ${static_size}, "
                      "expected 2040 vars, 360 rows")
endif()
if(static_lp MATCHES "_p0")
  message(FATAL_ERROR "static model carries a period suffix (_p0)")
endif()
if(NOT static_lp MATCHES " x_0_[0-9]+[ \n]")
  message(FATAL_ERROR "static model lacks unsuffixed x_ columns")
endif()

write_model(horizon TRUE --engine heuristic --horizon 2)
if(NOT horizon_lp MATCHES " x_0_[0-9]+_p1[ \n]")
  message(FATAL_ERROR "--horizon 2 model lacks period-1 (_p1) x_ columns")
endif()

# The locked competitor always plans exactly; a short budget keeps the run
# brief, and whether it finds a plan in time does not matter here.
write_model(locked FALSE --horizon 2 --static-horizon --time-limit 500)
if(NOT locked_lp MATCHES " x_0_[0-9]+[ \n]")
  message(FATAL_ERROR "--static-horizon model lacks unsuffixed x_ columns")
endif()
if(locked_lp MATCHES " x_[0-9]+_[0-9]+_p[0-9]")
  message(FATAL_ERROR "--static-horizon model has per-period x_ columns")
endif()
if(NOT locked_lp MATCHES "_p1")
  message(FATAL_ERROR "--static-horizon model lacks period-1 rows")
endif()
