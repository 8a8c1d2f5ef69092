# Runs grubctl --feeds with each flag a single run takes. Every flag either
# has its observable effect on the feeds' report, or is a usage error (exit
# status 2 with the usage text) — never silently ignored.
#
#   cmake -DGRUBCTL=<path to grubctl> -DGRUB_FAULTS=<ON|OFF> -P feeds_flags.cmake
if(NOT GRUBCTL)
  message(FATAL_ERROR "pass -DGRUBCTL=<path to grubctl>")
endif()

set(small --policy bl1 --records 64 --ops 128)

function(expect_usage_error)
  execute_process(COMMAND ${GRUBCTL} --feeds ycsb:B ${small} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(all "${out}${err}")
  string(JOIN " " args ${ARGN})
  if(NOT rc STREQUAL "2" OR NOT all MATCHES "usage: grubctl")
    message(SEND_ERROR "grubctl --feeds ${args}: exit '${rc}', expected 2 with usage")
  endif()
endfunction()

# Runs a --feeds report that must succeed; sets `report` and `gas` (the
# feeds' total) in the caller.
function(run_feeds)
  execute_process(COMMAND ${GRUBCTL} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(JOIN " " args ${ARGN})
  if(NOT rc STREQUAL "0")
    message(SEND_ERROR "grubctl ${args}: exit '${rc}'\n${err}")
  endif()
  string(REGEX MATCH "total: ([0-9]+) Gas" match "${out}")
  set(report "${out}" PARENT_SCOPE)
  set(gas "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

function(expect_gas_change what base changed)
  if(base STREQUAL "" OR base STREQUAL changed)
    message(SEND_ERROR "${what}: feed Gas '${base}' -> '${changed}', expected a change")
  endif()
endfunction()

# Chain-wide or single-run-only flags: usage errors.
expect_usage_error(--faults sp.deliver.drop@1)
expect_usage_error(--trace-out feeds_flags_trace.json)
expect_usage_error(--trace-summary)
expect_usage_error(--telemetry)
expect_usage_error(--gas-breakdown)
expect_usage_error(--metrics-out feeds_flags_metrics.csv)
expect_usage_error(--watch 8)
expect_usage_error(--converged)
expect_usage_error(--scenario reprice)
expect_usage_error(--watch 8 --json)
expect_usage_error(--leaderboard)

# --price: the shared chain's schedule, so the feed pays its surcharge.
run_feeds(--feeds ycsb:A ${small})
set(unit_gas "${gas}")
run_feeds(--feeds ycsb:A ${small} --price step:5,40,4000,4000)
expect_gas_change("--price step" "${unit_gas}" "${gas}")
if(NOT report MATCHES "price: +step:5,40,4000,4000")
  message(SEND_ERROR "--price: the feeds report names no schedule\n${report}")
endif()

# ... and `offline` replays it price-aware, exactly as a single run does.
set(offline --policy offline --records 64 --ops 128 --price step:5,40,4000,4000)
run_feeds(--feeds ycsb:A ${offline})
set(feed_gas "${gas}")
execute_process(COMMAND ${GRUBCTL} --workload ycsb:A ${offline}
                OUTPUT_VARIABLE single)
string(REGEX MATCH "total: +([0-9]+) Gas" match "${single}")
if(feed_gas STREQUAL "" OR NOT feed_gas STREQUAL CMAKE_MATCH_1)
  message(SEND_ERROR "--policy offline --price: 1-feed Gas '${feed_gas}', single run '${CMAKE_MATCH_1}'")
endif()

# --range-scans: scans are answered by one range proof, not point reads.
run_feeds(--feeds ycsb:E ${small})
set(point_gas "${gas}")
run_feeds(--feeds ycsb:E ${small} --range-scans)
expect_gas_change("--range-scans" "${point_gas}" "${gas}")

# --tier: every feed's placement policy (storage == bl2, Gas-exactly).
run_feeds(--feeds ycsb:A ${small} --policy bl2)
set(bl2_gas "${gas}")
run_feeds(--feeds ycsb:A ${small} --tier storage)
if(NOT gas STREQUAL bl2_gas OR gas STREQUAL unit_gas)
  message(SEND_ERROR "--tier storage: feed Gas '${gas}', expected bl2's '${bl2_gas}'")
endif()

# --sps / --adversary: every feed's SP quorum.
run_feeds(--feeds ycsb:B,ycsb:A ${small} --sps 2)
string(REGEX MATCHALL "quorum: 2 SP replicas" replicas "${report}")
list(LENGTH replicas replica_lines)
if(NOT replica_lines EQUAL 2)
  message(SEND_ERROR "--sps 2: expected 2 replicas for each of 2 feeds\n${report}")
endif()
run_feeds(--feeds ycsb:B ${small} --sps 2 --adversary 0:forge*)
# Attacks only mutate delivers in GRUB_FAULTS builds.
if(GRUB_FAULTS AND NOT report MATCHES "quorum: 2 SP replicas, [1-9][0-9]* failovers")
  message(SEND_ERROR "--adversary: the forging replica was never failed over\n${report}")
endif()

# --profile: the process-global probe table follows the report.
run_feeds(--feeds ycsb:B ${small} --profile)
if(NOT report MATCHES "hot-path probes")
  message(SEND_ERROR "--profile: no probe table in the feeds report\n${report}")
endif()
