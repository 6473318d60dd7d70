# Checks that a cached kappa_n model of the wrong shape is treated as
# corrupt and retrained, never planned with: `run --seed 1` on a fresh
# model cache, then every cached *.mlp is overwritten with a well-formed
# 4 -> 24 -> 2 network (two outputs where kappa_n writes one), and the
# rerun must exit 0 with stdout identical to the first run.
#
#   cmake -DCLI=path/to/cvsafe_cli -DCACHE=path/to/scratch/cache \
#         -P tools/cli_model_cache_rejects_wrong_shape.cmake
if(NOT CLI OR NOT CACHE)
  message(FATAL_ERROR "pass -DCLI=<path to cvsafe_cli> -DCACHE=<dir>")
endif()

file(REMOVE_RECURSE ${CACHE})
set(ENV{CVSAFE_MODEL_CACHE} ${CACHE})

function(run_seed1 out_var)
  execute_process(COMMAND ${CLI} run --seed 1
                  RESULT_VARIABLE _rc OUTPUT_VARIABLE _out
                  ERROR_VARIABLE _err)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "run --seed 1 exited ${_rc}\n${_out}${_err}")
  endif()
  set(${out_var} "${_out}" PARENT_SCOPE)
endfunction()

run_seed1(_fresh)
file(GLOB _models ${CACHE}/*.mlp)
list(LENGTH _models _n)
if(_n EQUAL 0)
  message(FATAL_ERROR "run --seed 1 cached no model under ${CACHE}")
endif()

# A 4 -> 24 -> 2 network in the save_mlp format: a weight row per output
# unit, then the bias row.
string(REPEAT " 0.25" 4 _row4)
string(REPEAT " 0.25" 24 _row24)
string(REPEAT "${_row4}\n" 24 _w1)
string(REPEAT "${_row24}\n" 2 _w2)
string(CONCAT _wrong_shape "cvsafe-mlp 1\n2\n4 24 tanh\n${_w1}${_row24}\n"
                           "24 2 identity\n${_w2} 0 0\n")
foreach(_model IN LISTS _models)
  file(WRITE ${_model} "${_wrong_shape}")
endforeach()

run_seed1(_rerun)
if(NOT _rerun STREQUAL _fresh)
  message(FATAL_ERROR "run --seed 1 over ${_n} wrong-shape cached "
                      "model(s) printed\n${_rerun}\ninstead of\n${_fresh}")
endif()
message(STATUS "${_n} wrong-shape cached model(s) retrained, output "
               "unchanged")
