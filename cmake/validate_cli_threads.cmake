# Validates the etransform_cli --threads contract: the thread count sizes the
# solve's LP pool and never changes the explored tree. Plans the 4-period
# right-sizing MILP to its proven optimum at --threads 1 and --threads 3 and
# requires the same plan (cost and horizon subtrees), bound, node count and
# LP iterations in the --result-json documents. Driven by ctest:
#   cmake -DCLI=<path> -DWORK_DIR=<dir> -P validate_cli_threads.cmake
cmake_minimum_required(VERSION 3.19)

if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<etransform_cli> -DWORK_DIR=<dir> "
                      "-P validate_cli_threads.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(instance "${WORK_DIR}/threads_check.etf")

execute_process(
  COMMAND "${CLI}" generate rightsizing -o "${instance}"
  RESULT_VARIABLE generate_result
  OUTPUT_QUIET)
if(NOT generate_result EQUAL 0)
  message(FATAL_ERROR "etransform_cli generate failed (${generate_result})")
endif()

set(keys cost horizon lower_bound milp_nodes lp_iters proven_optimal)
foreach(threads 1 3)
  set(result_json "${WORK_DIR}/threads_${threads}.json")
  execute_process(
    COMMAND "${CLI}" plan "${instance}" --engine exact --traffic-curve diurnal
            --horizon 4 --trough 0.25 --migration-cost 0.5
            --threads ${threads} --result-json "${result_json}"
    RESULT_VARIABLE plan_result
    OUTPUT_QUIET)
  if(NOT plan_result EQUAL 0)
    message(FATAL_ERROR "plan --threads ${threads} failed (${plan_result})")
  endif()
  file(READ "${result_json}" result)
  foreach(key ${keys})
    string(JSON value ERROR_VARIABLE json_err GET "${result}" "${key}")
    if(NOT json_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "${result_json}: missing '${key}'")
    endif()
    set(${key}_${threads} "${value}")
  endforeach()
  message(STATUS "--threads ${threads}: bound ${lower_bound_${threads}}, "
                 "${milp_nodes_${threads}} nodes, ${lp_iters_${threads}} "
                 "LP iterations")
endforeach()

if(NOT proven_optimal_1)
  message(FATAL_ERROR "--threads 1 did not prove the plan optimal")
endif()
foreach(key ${keys})
  if(NOT "${${key}_1}" STREQUAL "${${key}_3}")
    message(FATAL_ERROR "--threads changed '${key}': ${${key}_1} at 1 thread, "
                        "${${key}_3} at 3 threads")
  endif()
endforeach()
