# Runs grubctl over a table of malformed --workload / --feeds specs. Each one
# must be a usage error: exit status 2 with the usage text, never an uncaught
# exception (std::terminate, exit 134).
#
#   cmake -DGRUBCTL=<path to grubctl> -P bad_workload_specs.cmake
if(NOT GRUBCTL)
  message(FATAL_ERROR "pass -DGRUBCTL=<path to grubctl>")
endif()

function(expect_usage_error)
  execute_process(COMMAND ${GRUBCTL} ${ARGN} --ops 8
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(all "${out}${err}")
  string(JOIN " " args ${ARGN})
  if(NOT rc STREQUAL "2" OR all MATCHES "terminate" OR
     NOT all MATCHES "usage: grubctl")
    message(SEND_ERROR "grubctl ${args}: exit '${rc}', expected 2 with usage\n${err}")
  endif()
endfunction()

foreach(spec "ycsb:C" "ycsb:" "ycsb:A,Z" "ycsb:AB" "ratio:" "ratio:abc"
             "ratio:-1" "bogus" "oracle:1")
  expect_usage_error(--workload "${spec}")
endforeach()
foreach(spec "ycsb:C" "ratio:abc" "bogus")
  expect_usage_error(--feeds "ratio:4,${spec}")
endforeach()
