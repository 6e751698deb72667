# Run a CLI three times and require the same stdout each time, apart from
# lines that start with IGNORE (wall-clock timings).
#
#   cmake -DEXE=<binary> "-DARGS=<arguments>" -DIGNORE=<prefix> -P cli_repeat.cmake
#
# ARGS is one space-separated string. Every run must exit 0.
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(run 1 2 3)
  execute_process(COMMAND "${EXE}" ${args}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}")
  endif()
  string(REGEX REPLACE "(^|\n)${IGNORE}[^\n]*" "\\1" out "${out}")
  if(run EQUAL 1)
    set(first "${out}")
  elseif(NOT out STREQUAL first)
    message(NOTICE "run 1:\n${first}\nrun ${run}:\n${out}")
    message(FATAL_ERROR "output of ${EXE} ${ARGS} changed between runs")
  endif()
endforeach()
