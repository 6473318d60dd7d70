# Checks that `cvsafe_cli` refuses every flag the command (or, for run and
# batch, the chosen --scenario) does not read: exit status 2 and a message
# naming the flag, before any work starts.
#
#   cmake -DCLI=path/to/cvsafe_cli -P tools/cli_rejects_flags.cmake
if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to cvsafe_cli>")
endif()

# Requires exit 2 and stderr matching the regex \p expected from the CLI
# run with ARGN.
function(expect_rejected expected)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE _rc
                  OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
  list(JOIN ARGN " " _cmdline)
  if(NOT _rc EQUAL 2 OR NOT _err MATCHES "${expected}")
    message(FATAL_ERROR "${_cmdline}: exit ${_rc}, expected 2 and "
                        "'${expected}'\n${_out}${_err}")
  endif()
endfunction()

# Left-turn-only flags of run and batch, and flags they never read.
set(_left_turn_only_run trace profile metrics style)
set(_left_turn_only_batch flight-recorder telemetry pool style)
set(_unread_run flight-recorder telemetry pool engine sims threads)
set(_unread_batch engine trace profile metrics)
foreach(_cmd run batch)
  foreach(_scenario left-turn lane-change intersection multi)
    if(NOT _scenario STREQUAL "left-turn")
      foreach(_flag IN LISTS _left_turn_only_${_cmd})
        expect_rejected("--${_flag} requires --scenario left-turn"
                        ${_cmd} --scenario ${_scenario} --${_flag} out.txt)
      endforeach()
    endif()
    foreach(_flag IN LISTS _unread_${_cmd})
      expect_rejected("${_cmd}: unknown option --${_flag}"
                      ${_cmd} --scenario ${_scenario} --${_flag} out.txt)
    endforeach()
  endforeach()
  expect_rejected("--config requires --scenario left-turn\\|multi"
                  ${_cmd} --scenario lane-change --config x.ini)
  expect_rejected("--cars requires --scenario multi" ${_cmd} --cars 3)
endforeach()

# The default scenario (left turn), and the other commands' own lists.
expect_rejected("run: unknown option --flight-recorder"
                run --flight-recorder x)
expect_rejected("run: unknown option --telemetry" run --telemetry x)
expect_rejected("run: unknown option --pool" run --pool 8)
expect_rejected("batch: unknown option --engine" batch --engine lockstep)
expect_rejected("campaign: unknown option --pool" campaign --pool 8)
expect_rejected("attack: unknown option --telemetry" attack --telemetry x)
expect_rejected("certify: unknown option --trace" certify --trace x)
