# Checks that `cvsafe_cli run|batch` refuses the left-turn-only flags for
# the other scenarios: exit status 2 and a message naming the flag.
#
#   cmake -DCLI=path/to/cvsafe_cli -P tools/cli_rejects_flags.cmake
if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to cvsafe_cli>")
endif()

set(_flags trace profile metrics flight-recorder telemetry engine pool)
set(_scenarios lane-change intersection multi)
foreach(_cmd run batch)
  foreach(_scenario IN LISTS _scenarios)
    foreach(_flag IN LISTS _flags)
      execute_process(
        COMMAND ${CLI} ${_cmd} --scenario ${_scenario} --${_flag} out.txt
        RESULT_VARIABLE _rc
        OUTPUT_VARIABLE _out
        ERROR_VARIABLE _err)
      if(NOT _rc EQUAL 2)
        message(FATAL_ERROR "${_cmd} --scenario ${_scenario} --${_flag}: "
                            "exit ${_rc}, expected 2\n${_out}${_err}")
      endif()
      if(NOT _err MATCHES "--${_flag} requires --scenario left-turn")
        message(FATAL_ERROR "${_cmd} --scenario ${_scenario} --${_flag}: "
                            "unexpected message: ${_err}")
      endif()
    endforeach()
  endforeach()
endforeach()
