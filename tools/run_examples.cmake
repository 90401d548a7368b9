# Runs every example binary given as -DEXAMPLES="<path>;<path>;..." once
# with no arguments and requires each to exit 0. Run with: cmake
# -DEXAMPLES="build/quickstart;build/flexmoe_sim" -P tools/run_examples.cmake
if(NOT EXAMPLES)
  message(FATAL_ERROR "pass -DEXAMPLES=<example binaries>")
endif()
foreach(example ${EXAMPLES})
  execute_process(COMMAND ${example}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${example}: expected exit code 0, got '${rc}'\n"
                        "${out}\n${err}")
  endif()
  message(STATUS "${example}: exit 0")
endforeach()
