# Checks that `cvsafe_cli` refuses every flag the command (or, for run and
# batch, the chosen --scenario) does not read, and every value a flag does
# not take: exit status 2 and a message naming the flag, before any work
# starts.
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
set(_left_turn_only_run style)
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

# Every scenario traces to JSONL; the CSV trace is the left turn's.
foreach(_scenario lane-change intersection multi)
  expect_rejected("--trace out.csv: the CSV trace is left-turn only"
                  run --scenario ${_scenario} --trace out.csv)
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

# Numeric flags: the whole token must be a number of the flag's kind, or
# the CLI exits 2 naming the flag and the value before any work. A token
# such as -3 is read as a value, so a negative number is rejected rather
# than dropped. --threads is at most 256; the counts above it are tried
# with --sims 1, so that, were the check missing, the command would still
# start at most one worker (the fleet clamps its workers to the episode
# count).
set(_count "expects a whole number of at least 1, got")
set(_whole "expects a whole number, got")
set(_real "expects a finite number, got")
expect_rejected("--cars ${_count} 1e30" run --scenario multi --cars 1e30)
expect_rejected("--cars ${_count} 0" run --scenario multi --cars 0)
expect_rejected("--cars ${_count} -2" run --scenario multi --cars -2)
expect_rejected("--seed ${_whole} -3" run --seed -3)
expect_rejected("--seed needs a value" run --seed)
expect_rejected("--sims ${_count} abc" batch --scenario multi --sims abc)
expect_rejected("--sims ${_count} 0.5" batch --scenario multi --sims 0.5)
expect_rejected("--sims ${_count} 0" batch --sims 0)
expect_rejected("--pool ${_count} 0" batch --pool 0)
expect_rejected("--threads ${_whole} abc"
                batch --scenario lane-change --threads abc)
expect_rejected("--threads ${_whole} 2.5" campaign --threads 2.5)
set(_threads "expects a whole number of at most 256, got")
expect_rejected("--threads ${_threads} 257"
                batch --scenario intersection --sims 1 --threads 257)
expect_rejected("--threads ${_threads} 257"
                campaign --preset smoke --sims 1 --threads 257)
expect_rejected("--points ${_count} 0" sweep --points 0)
expect_rejected("--sims ${_count} 0" campaign --sims 0)
expect_rejected("--budget ${_count} 0" attack --budget 0)
expect_rejected("--budget ${_count} 12x" attack --budget 12x)
expect_rejected("--topk ${_count} 0" attack --topk 0)
expect_rejected("--eval-seed ${_whole} -1" attack --eval-seed -1)
expect_rejected("--stealth ${_real} inf" attack --stealth inf)
expect_rejected("--drop ${_real} 0.2x" run --drop 0.2x)
expect_rejected("--delay ${_real} nan" batch --delay nan)
expect_rejected("--delta ${_real} abc" certify --delta abc)

# In range: the same checks name a finite number outside its flag's range
# (--drop and --stealth in [0, 1], --delay > 0, --delta >= 0) before any
# model loads or episode runs.
set(_fraction "expects a number in \\[0, 1\\], got")
expect_rejected("--delay expects a number > 0, got -1" run --delay -1)
expect_rejected("--delay expects a number > 0, got 0"
                run --drop 0.2 --delay 0)
expect_rejected("--delta expects a number >= 0, got -1" run --delta -1)
expect_rejected("--delta expects a number >= 0, got -1"
                run --delta -1 --variant pure)
expect_rejected("--delta expects a number >= 0, got -1"
                run --scenario intersection --delta -1 --variant pure)
expect_rejected("--delta expects a number >= 0, got -1"
                batch --delta -1 --variant pure --sims 500)
expect_rejected("--drop ${_fraction} 2" run --drop 2)
expect_rejected("--drop ${_fraction} -0.1" sweep --drop -0.1)
expect_rejected("--stealth ${_fraction} 5" attack --stealth 5)

# Word-valued flags take one of their words (word_flags()), or the CLI
# exits 2 naming the flag and the value before any work.
expect_rejected("--variant expects one of pure\\|basic\\|ultimate, got foo"
                run --variant foo)
expect_rejected("--variant expects one of pure\\|basic\\|ultimate, got foo"
                run --scenario lane-change --variant foo)
expect_rejected("--variant needs a value" batch --variant)
expect_rejected("--profile needs a value" run --profile)
expect_rejected("--trace needs a value" run --scenario multi --trace)
expect_rejected("--style expects one of cons\\|aggr, got foo"
                run --style foo)
expect_rejected("--kind expects one of drop\\|sensor, got foo"
                sweep --kind foo)
expect_rejected("--preset expects one of ci\\|smoke, got foo"
                campaign --preset foo)
expect_rejected("--optimizer expects one of cma\\|coord, got foo"
                attack --optimizer foo)
expect_rejected("--scenario expects one of left-turn\\|lane-change\\|"
                attack --scenario foo)
expect_rejected("--scenario expects one of left-turn\\|lane-change\\|"
                run --scenario foo)
expect_rejected("--scenario expects one of left-turn\\|lane-change\\|"
                batch --scenario multi-vehicle)
