# Runs flexmoe_sim given as -DSIM=<path> once per malformed flag value and
# requires each run to stop with exit code 1 and an "error:" line before
# any simulation. Run with: cmake -DSIM=build/flexmoe_sim -P
# tools/check_example_flags.cmake
if(NOT SIM)
  message(FATAL_ERROR "pass -DSIM=<flexmoe_sim binary>")
endif()
foreach(arg --gpus=abc --steps=4x --capacity=nan --capacity=inf
            --metric=bogus --policy=bogus)
  execute_process(COMMAND ${SIM} --system=deepspeed --gpus=8 --steps=3
                          --warmup=1 ${arg}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${arg}: expected exit code 1, got '${rc}'")
  endif()
  if(NOT err MATCHES "error: ")
    message(FATAL_ERROR "${arg}: no error message: ${err}")
  endif()
  if(out MATCHES "simulating")
    message(FATAL_ERROR "${arg}: simulation started before the error")
  endif()
  message(STATUS "${arg}: exit 1 (${err})")
endforeach()
