# Runs `${CLI} ${ARGS}` and checks that it exited 0 and wrote ${JSON}
# containing "pass": true.  Used by the cli_smoke ctest entries:
#   cmake -DCLI=... -DARGS="verb;--flag;value;..." -DJSON=... -P cli_smoke.cmake
file(REMOVE "${JSON}")
execute_process(COMMAND "${CLI}" ${ARGS} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tagspin_cli ${ARGS} exited ${rc}")
endif()
if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "tagspin_cli ${ARGS} wrote no ${JSON}")
endif()
file(READ "${JSON}" payload)
string(FIND "${payload}" "\"pass\": true" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${JSON} does not hold \"pass\": true")
endif()
