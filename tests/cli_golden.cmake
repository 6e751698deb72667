# Run a CLI and compare its stdout with a golden file byte for byte.
#
#   cmake -DEXE=<binary> "-DARGS=<arguments>" -DGOLDEN=<file> -P cli_golden.cmake
#
# ARGS is one space-separated string. The run must exit 0. With
# NFACTOR_UPDATE_GOLDEN set in the environment the golden is rewritten
# instead; review its diff like any other source change.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}")
endif()

if(DEFINED ENV{NFACTOR_UPDATE_GOLDEN})
  file(WRITE "${GOLDEN}" "${actual}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden file ${GOLDEN} "
    "(run with NFACTOR_UPDATE_GOLDEN=1 to create)")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(NOTICE "actual output:\n${actual}")
  message(FATAL_ERROR "output of ${EXE} ${ARGS} drifted from ${GOLDEN}")
endif()
