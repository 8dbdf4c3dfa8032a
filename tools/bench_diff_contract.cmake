# Exit-code contract of tools/bench_diff, run as a ctest:
#
#   cmake -DBENCH_DIFF=<path to bench_diff> -DWORK_DIR=<scratch dir>
#         -P bench_diff_contract.cmake
#
# 0 = no shared row regressed, 1 = a row regressed beyond tolerance,
# 2 = usage/IO error (missing file, a row the gate cannot judge, a
# tolerance that does not parse). Each case writes its own artifacts.
if(NOT BENCH_DIFF OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DBENCH_DIFF=... and -DWORK_DIR=...")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

function(write_artifact name rows)
  file(WRITE "${WORK_DIR}/${name}.json"
       "{\n  \"tool\": \"libra-bench\",\n  \"version\": 1,\n  \"rows\": [\n${rows}\n  ]\n}\n")
endfunction()

function(row out name value direction)
  set(${out} "    {\"name\": \"${name}\", \"value\": ${value}, \"unit\": \"ns\", \"direction\": \"${direction}\"}" PARENT_SCOPE)
endfunction()

function(expect_exit want)
  execute_process(COMMAND "${BENCH_DIFF}" ${ARGN}
                  RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
  list(JOIN ARGN " " args)
  if(NOT got STREQUAL "${want}")
    message(SEND_ERROR "bench_diff ${args}: exit ${got}, want ${want}\n${out}${err}")
  else()
    message(STATUS "ok: exit ${got} <- bench_diff ${args}")
  endif()
endfunction()

row(lat lat_ns 100 lower)
row(thr thr_ratio 4.0 higher)
write_artifact(base "${lat},\n${thr}")

row(lat_up lat_ns 200 lower)
write_artifact(lat_regressed "${lat_up},\n${thr}")
row(thr_down thr_ratio 1.0 higher)
write_artifact(thr_regressed "${lat},\n${thr_down}")
row(lat_nan lat_ns nan lower)
write_artifact(value_nan "${lat_nan},\n${thr}")
row(thr_cap thr_ratio 4.0 Higher)
write_artifact(direction_caps "${lat},\n${thr_cap}")
row(other other_ns 1 lower)
write_artifact(disjoint "${other}")

set(base "${WORK_DIR}/base.json")
expect_exit(0 "${base}" "${base}")
expect_exit(0 "${base}" "${WORK_DIR}/lat_regressed.json" --tolerance 1.5)
expect_exit(1 "${base}" "${WORK_DIR}/lat_regressed.json")
expect_exit(1 "${base}" "${WORK_DIR}/thr_regressed.json")
expect_exit(1 "${base}" "${WORK_DIR}/thr_regressed.json" --tolerance=0.5)
expect_exit(2 "${base}" "${WORK_DIR}/no_such_artifact.json")
expect_exit(2 "${WORK_DIR}/no_such_artifact.json" "${base}")
expect_exit(2 "${base}" "${WORK_DIR}/value_nan.json")
expect_exit(2 "${WORK_DIR}/value_nan.json" "${base}")
expect_exit(2 "${WORK_DIR}/direction_caps.json" "${WORK_DIR}/thr_regressed.json")
expect_exit(2 "${base}" "${WORK_DIR}/disjoint.json")
expect_exit(2 "${base}" "${base}" --tolerance nan)
expect_exit(2 "${base}" "${base}" --tolerance abc)
expect_exit(2 "${base}" "${base}" --tolerance 0.3x)
expect_exit(2 "${base}" "${base}" --tolerance=-0.1)
expect_exit(2 "${base}" "${base}" --tolerance inf)
expect_exit(2 "${base}")
