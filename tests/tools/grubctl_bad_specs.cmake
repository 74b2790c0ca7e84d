# Runs grubctl (-DGRUBCTL=<path>) on malformed workload specs. Each one is a
# usage error and must exit with status 2, as an unknown workload name does:
# no abort on an uncaught exception, no run on a misread spec.
foreach(spec "--workload;ycsb:C" "--feeds;ycsb:Z" "--workload;ratio:abc")
  execute_process(COMMAND ${GRUBCTL} ${spec} --records 8 --ops 8
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
  if(NOT status STREQUAL "2")
    list(JOIN spec " " shown)
    message(FATAL_ERROR "grubctl ${shown}: exit status '${status}', want 2")
  endif()
endforeach()
