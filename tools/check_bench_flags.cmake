# Runs bench_paper on malformed command lines: each must exit 2 with a
# usage line before printing or running anything (the rules are listed in
# bench/bench_common.h; the retired --legacy-gate, --extra, --out and
# --large-ep are unknown flags). A --claims-out that cannot be written must
# exit 1. Run with: cmake -DBENCH=build/bench_paper -P tools/check_bench_flags.cmake
if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<bench binary>")
endif()

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

foreach(value abc 4x -1)
  expect_usage("--threads expects an integer" --threads ${value})
endforeach()
foreach(value abc 4x -1 65)
  expect_usage("--pipeline-chunks expects an integer"
               --pipeline-chunks ${value})
endforeach()
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
expect_usage("unknown --figure 'bogus' \\(figures: fig2, fig3, .*table2, ablation-.*, workload-suite, serving-slo, elastic-recovery\\)"
             --figure bogus)
expect_usage("--figure expects a value" --figure)
# Flags that no selected entry reads.
expect_usage("no selected figure reads --pipeline-chunks \\(read by: workload-suite, serving-slo\\)"
             --figure fig2 --pipeline-chunks 4)
expect_usage("no selected figure reads --trace-out \\(read by: serving-slo\\)"
             --figure fig6c --trace-out t.json)
expect_usage("no selected figure reads --workload"
             --figure elastic-recovery --workload bursty)
expect_usage("no selected figure reads --size-mix"
             --figure workload-suite --size-mix heavy)
# The default selection holds both digest-writing entries.
expect_usage("--digests needs exactly one digest-writing figure" --digests x)
expect_usage("--workload 'finetune-shift' is not a serving scenario"
             --figure serving-slo --workload finetune-shift)

if(EXISTS /dev/full)
  execute_process(COMMAND ${BENCH} --quick --figure fig6c
                          --claims-out /dev/full
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "--claims-out /dev/full: exit '${rc}', not 1")
  endif()
  message(STATUS "--claims-out /dev/full: exit 1 (${err})")
endif()
