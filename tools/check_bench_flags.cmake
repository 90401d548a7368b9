# Runs the bench given as -DBENCH=<path> once per malformed command line
# and requires each run to stop with the usage exit code 2 (before doing
# any work). Numeric values must be whole integers, --threads rejects a
# negative count and --pipeline-chunks rejects integers outside
# [0, kMaxPipelineChunks]. Unknown flags (including the retired
# --legacy-gate, --extra, --out and --large-ep), a valued flag with no
# value, a --workload, --size-mix or --admission outside its set, and a
# --figure outside the bench's registry are usage errors too. -DFIGURES is
# a regex for the registry listed in that usage line (default: empty
# registry). Run with:
# cmake -DBENCH=build/bench_elastic_recovery -P tools/check_bench_flags.cmake
if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<bench binary>")
endif()
foreach(case --threads=abc --threads=4x --threads=-1 --pipeline-chunks=abc
             --pipeline-chunks=4x --pipeline-chunks=-1 --pipeline-chunks=65)
  string(REPLACE "=" ";" parts ${case})
  list(GET parts 0 flag)
  list(GET parts 1 value)
  execute_process(COMMAND ${BENCH} --quick ${flag} ${value}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "${flag} ${value}: expected exit code 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "expects an integer")
    message(FATAL_ERROR "${flag} ${value}: no usage message: ${err}")
  endif()
  message(STATUS "${flag} ${value}: exit 2 (${err})")
endforeach()

# expect_usage(<stderr regex> <arg>...): `BENCH --quick <arg>...` must exit
# 2 with a "usage:" line matching the regex, and print no bench output.
function(expect_usage pattern)
  execute_process(COMMAND ${BENCH} --quick ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${ARGN}: expected exit code 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "usage: ${pattern}")
    message(FATAL_ERROR "${ARGN}: no usage message: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${ARGN}: the bench ran before the error: ${out}")
  endif()
  message(STATUS "${ARGN}: exit 2 (${err})")
endfunction()

expect_usage("unknown flag '--bogus-flag'" --bogus-flag)
expect_usage("unknown flag '--legacy-gate'" --legacy-gate)
expect_usage("unknown --workload 'bogus' \\(scenarios: pretrain-steady"
             --workload bogus)
expect_usage("--workload expects a value" --workload)
expect_usage("unknown --size-mix 'bogus'" --size-mix bogus)
expect_usage("unknown --admission 'bogus'" --admission bogus)
expect_usage("unknown flag '--extra'" --extra name=1)
expect_usage("unknown flag '--out'" --out x.json)
expect_usage("unknown flag '--large-ep'" --large-ep)
expect_usage("unknown --figure 'bogus' \\(figures: ${FIGURES}\\)"
             --figure bogus)
expect_usage("--figure expects a value" --figure)
