# Runs `${BENCH} ${ARGS}` and checks that it exited 1: it accepted its
# command line and ran, and a gate failed.  Used by ctest entries that pin
# a gate's failure:
#   cmake -DBENCH=... -DARGS="0;0" -P gate_fails.cmake
execute_process(COMMAND "${BENCH}" ${ARGS} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited ${rc}, want 1")
endif()
