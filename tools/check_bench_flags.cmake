# Runs the bench given as -DBENCH=<path> once per malformed numeric flag
# value and requires each run to stop with the usage exit code 2 (before
# doing any work). --pipeline-chunks also rejects integers outside
# [0, kMaxPipelineChunks]. Run with: cmake -DBENCH=build/bench_ablation_slots
# -P tools/check_bench_flags.cmake
if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<bench binary>")
endif()
foreach(case --threads=abc --threads=4x --pipeline-chunks=abc
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
