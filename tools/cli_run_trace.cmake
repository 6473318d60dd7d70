# Checks `run --trace FILE.jsonl` in the lane-change, intersection and
# multi-vehicle scenarios: under corruption faults, two runs of one seed
# write the same non-empty JSONL trace, and scripts/campaign_report.py
# reads it (exit 0).
#
#   cmake -DCLI=path/to/cvsafe_cli -DPYTHON=path/to/python3 \
#         -DREPORT=scripts/campaign_report.py -DOUT=path/to/dir \
#         -P tools/cli_run_trace.cmake
if(NOT CLI OR NOT PYTHON OR NOT REPORT OR NOT OUT)
  message(FATAL_ERROR "pass -DCLI=, -DPYTHON=, -DREPORT= and -DOUT=")
endif()

file(MAKE_DIRECTORY ${OUT})
foreach(_scenario lane-change intersection multi)
  foreach(_rep a b)
    set(_trace ${OUT}/${_scenario}_${_rep}.jsonl)
    file(REMOVE ${_trace})
    # run exits 1 when the episode ends in the unsafe set.
    execute_process(
      COMMAND ${CLI} run --scenario ${_scenario} --faults corruption
              --trace ${_trace} --seed 3
      RESULT_VARIABLE _rc OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
    if(NOT (_rc EQUAL 0 OR _rc EQUAL 1))
      message(FATAL_ERROR "${_scenario}: run exited ${_rc}\n${_out}${_err}")
    endif()
    file(SIZE ${_trace} _size)
    if(_size EQUAL 0)
      message(FATAL_ERROR "${_scenario}: ${_trace} is empty")
    endif()
  endforeach()
  file(READ ${OUT}/${_scenario}_a.jsonl _a)
  file(READ ${OUT}/${_scenario}_b.jsonl _b)
  if(NOT _a STREQUAL _b)
    message(FATAL_ERROR "${_scenario}: two runs of seed 3 wrote different "
                        "traces")
  endif()
  execute_process(
    COMMAND ${PYTHON} ${REPORT} --flights ${OUT}/${_scenario}_a.jsonl
    RESULT_VARIABLE _rc OUTPUT_QUIET ERROR_VARIABLE _err)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${_scenario}: report exited ${_rc}\n${_err}")
  endif()
endforeach()
message(STATUS "lane-change, intersection and multi write reproducible "
               "JSONL traces the report reads")
