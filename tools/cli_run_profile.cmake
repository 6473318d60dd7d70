# Checks `run --profile FILE` in every scenario: under corruption faults,
# seed 3, the run exits 0 or 1 as it does without --profile and prints the
# same lines apart from the `profile` line; FILE tallies the cohort
# step's phases of that one episode (observe, plan and advance once per
# step, infer never: a one-lane run plans through its own stack); and
# scripts/campaign_report.py --spans renders it (exit 0).
#
#   cmake -DCLI=path/to/cvsafe_cli -DPYTHON=path/to/python3 \
#         -DREPORT=scripts/campaign_report.py -DOUT=path/to/dir \
#         -P tools/cli_run_profile.cmake
if(NOT CLI OR NOT PYTHON OR NOT REPORT OR NOT OUT)
  message(FATAL_ERROR "pass -DCLI=, -DPYTHON=, -DREPORT= and -DOUT=")
endif()

file(MAKE_DIRECTORY ${OUT})
foreach(_scenario left-turn lane-change intersection multi)
  set(_prom ${OUT}/${_scenario}.prom)
  file(REMOVE ${_prom})
  set(_run ${CLI} run --scenario ${_scenario} --faults corruption --seed 3)
  # run exits 1 when the episode ends in the unsafe set.
  execute_process(COMMAND ${_run} --profile ${_prom}
                  RESULT_VARIABLE _rc OUTPUT_VARIABLE _out
                  ERROR_VARIABLE _err)
  if(NOT (_rc EQUAL 0 OR _rc EQUAL 1))
    message(FATAL_ERROR "${_scenario}: run exited ${_rc}\n${_out}${_err}")
  endif()
  execute_process(COMMAND ${_run} RESULT_VARIABLE _plain_rc
                  OUTPUT_VARIABLE _plain ERROR_VARIABLE _err)
  if(NOT _plain_rc EQUAL _rc)
    message(FATAL_ERROR "${_scenario}: exit ${_rc} with --profile, "
                        "${_plain_rc} without\n${_err}")
  endif()

  if(NOT _out MATCHES "emergency  [0-9]+ / ([0-9]+) steps")
    message(FATAL_ERROR "${_scenario}: no step count in\n${_out}")
  endif()
  set(_steps ${CMAKE_MATCH_1})
  set(_profile_line "profile    ${_prom} (${_steps} steps)\n")
  string(FIND "${_out}" "${_profile_line}" _at)
  if(_at EQUAL -1)
    message(FATAL_ERROR "${_scenario}: no '${_profile_line}' in\n${_out}")
  endif()
  string(REPLACE "${_profile_line}" "" _rest "${_out}")
  if(NOT _rest STREQUAL _plain)
    message(FATAL_ERROR "${_scenario}: stdout differs from the run without "
                        "--profile beyond the profile line\n--- with\n"
                        "${_out}--- without\n${_plain}")
  endif()

  file(READ ${_prom} _spans)
  foreach(_phase observe plan advance infer)
    set(_want ${_steps})
    if(_phase STREQUAL "infer")
      set(_want 0)
    endif()
    set(_series "cvsafe_sweep_steps_total{sweep=\"${_phase}\"} ${_want}\n")
    string(FIND "${_spans}" "${_series}" _at)
    if(_at EQUAL -1)
      message(FATAL_ERROR "${_scenario}: no '${_series}' in ${_prom}\n"
                          "${_spans}")
    endif()
  endforeach()

  execute_process(COMMAND ${PYTHON} ${REPORT} --spans ${_prom}
                  RESULT_VARIABLE _rc OUTPUT_VARIABLE _report
                  ERROR_VARIABLE _err)
  if(NOT _rc EQUAL 0 OR NOT _report MATCHES "\\| observe \\|")
    message(FATAL_ERROR "${_scenario}: report exited ${_rc}\n"
                        "${_report}${_err}")
  endif()
endforeach()
message(STATUS "run --profile writes one span per phase per step in every "
               "scenario, and the report reads it")
