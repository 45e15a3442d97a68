# Runs `${BENCH} ${ARGS}` in an empty directory ${DIR} and checks that it
# rejected its command line: exit code 2, the usage line on stderr, and
# nothing written, not even an empty output directory.  Used by the
# bench_rejects_* ctest entries:
#   cmake -DBENCH=... -DARGS="--json;x.json" -DDIR=... -P reject_args.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${BENCH}" ${ARGS} WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited ${rc}, want 2")
endif()
string(FIND "${err}" "usage: " at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BENCH} ${ARGS} printed no usage line: ${err}")
endif()
file(GLOB_RECURSE written LIST_DIRECTORIES true "${DIR}/*")
if(written)
  message(FATAL_ERROR "${BENCH} ${ARGS} wrote ${written}")
endif()
