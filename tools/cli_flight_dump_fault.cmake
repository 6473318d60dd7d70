# Checks that `cvsafe_cli batch --faults PLAN --flight-recorder FILE` and
# `cvsafe_cli run --faults PLAN --trace FILE.jsonl` name the fault plan in
# every dump header's "fault" field, not only the channel.
#
#   cmake -DCLI=path/to/cvsafe_cli -DOUT=path/to/flight.jsonl \
#         -P tools/cli_flight_dump_fault.cmake
if(NOT CLI OR NOT OUT)
  message(FATAL_ERROR "pass -DCLI=<path to cvsafe_cli> -DOUT=<dump file>")
endif()

file(REMOVE ${OUT})
execute_process(
  COMMAND ${CLI} batch --sims 16 --drop 0.2 --delay 0.25
          --faults corruption --flight-recorder ${OUT}
  RESULT_VARIABLE _rc OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "batch exited ${_rc}\n${_out}${_err}")
endif()

file(STRINGS ${OUT} _headers REGEX "^{\"flight\":")
list(LENGTH _headers _n)
if(_n EQUAL 0)
  message(FATAL_ERROR "${OUT} holds no dump header\n${_out}")
endif()
foreach(_header IN LISTS _headers)
  if(NOT _header MATCHES "\"fault\":\"[^\"]*corruption[^\"]*\"")
    message(FATAL_ERROR "dump header does not name the fault plan: "
                        "${_header}")
  endif()
endforeach()
message(STATUS "${_n} dump headers name the corruption plan")

file(REMOVE ${OUT}.run.jsonl)
execute_process(
  COMMAND ${CLI} run --seed 7 --drop 0.2 --delay 0.25 --faults corruption
          --trace ${OUT}.run.jsonl
  RESULT_VARIABLE _rc OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "run exited ${_rc}\n${_out}${_err}")
endif()
file(STRINGS ${OUT}.run.jsonl _headers REGEX "^{\"flight\":")
list(LENGTH _headers _n)
if(NOT _n EQUAL 1)
  message(FATAL_ERROR "${OUT}.run.jsonl holds ${_n} headers, want 1")
endif()
if(NOT _headers MATCHES "\"fault\":\"[^\"]*corruption[^\"]*\"")
  message(FATAL_ERROR "trace header does not name the fault plan: "
                      "${_headers}")
endif()
message(STATUS "the run trace header names the corruption plan")
