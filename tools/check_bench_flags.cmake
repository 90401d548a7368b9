# Runs the bench given as -DBENCH=<path> once per malformed numeric flag
# value and requires each run to stop with the usage exit code 2 (before
# doing any work). Run with: cmake -DBENCH=build/bench_ablation_slots -P
# tools/check_bench_flags.cmake
if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<bench binary>")
endif()
foreach(flag --threads --pipeline-chunks)
  foreach(value abc 4x)
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
endforeach()
