# Checks scripts/campaign_report.py on a traced campaign: the report's
# kappa_e entry count equals the number of gate verdicts into kappa_e in
# the trace (the CI campaign's lane-change cells enter kappa_e in almost
# every episode), and the report exits nonzero on a malformed line and on
# a traced episode whose events were overwritten.
#
#   cmake -DCLI=path/to/cvsafe_cli -DPYTHON=path/to/python3 \
#         -DREPORT=scripts/campaign_report.py -DOUT=path/to/trace.jsonl \
#         -P tools/cli_campaign_report.cmake
if(NOT CLI OR NOT PYTHON OR NOT REPORT OR NOT OUT)
  message(FATAL_ERROR "pass -DCLI=, -DPYTHON=, -DREPORT= and -DOUT=")
endif()

file(REMOVE ${OUT})
execute_process(
  COMMAND ${CLI} campaign --preset ci --sims 2 --trace ${OUT}
  RESULT_VARIABLE _rc OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "campaign exited ${_rc}\n${_out}${_err}")
endif()

file(STRINGS ${OUT} _entries
     REGEX "\"kind\":\"gate_verdict\",\"code\":1,")
list(LENGTH _entries _want)
if(_want EQUAL 0)
  message(FATAL_ERROR "${OUT} holds no kappa_e entry")
endif()

execute_process(
  COMMAND ${PYTHON} ${REPORT} --flights ${OUT}
  RESULT_VARIABLE _rc OUTPUT_VARIABLE _report ERROR_VARIABLE _err)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "report exited ${_rc} on a sound trace\n${_err}")
endif()
if(NOT _report MATCHES " ([0-9]+) kappa_e entries ")
  message(FATAL_ERROR "report prints no kappa_e entry count\n${_report}")
endif()
if(NOT CMAKE_MATCH_1 EQUAL _want)
  message(FATAL_ERROR "report counts ${CMAKE_MATCH_1} kappa_e entries, "
                      "the trace holds ${_want}")
endif()

file(READ ${OUT} _trace)
file(WRITE ${OUT}.malformed "${_trace}{\"episode\":0,\"step\":\n")
execute_process(
  COMMAND ${PYTHON} ${REPORT} --flights ${OUT}.malformed
  RESULT_VARIABLE _rc OUTPUT_QUIET ERROR_QUIET)
if(_rc EQUAL 0)
  message(FATAL_ERROR "report accepted a malformed line")
endif()

string(REPLACE "\"overwritten\":0}}" "\"overwritten\":3}}" _cut "${_trace}")
file(WRITE ${OUT}.overwritten "${_cut}")
execute_process(
  COMMAND ${PYTHON} ${REPORT} --flights ${OUT}.overwritten
  RESULT_VARIABLE _rc OUTPUT_QUIET ERROR_VARIABLE _err)
if(_rc EQUAL 0)
  message(FATAL_ERROR "report accepted traced episodes that lost events")
endif()
message(STATUS "report counts ${_want} kappa_e entries; rejects a "
               "malformed line and overwritten traced episodes")
