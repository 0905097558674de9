# Runs a command and fails unless it exits with exactly the expected code
# (and, when EXPECT_STDERR is given, its stderr matches that regex):
#
#   cmake -DCMD=<program> "-DARGS=<space-separated arguments>" \
#         -DEXPECT=<exit code> ["-DEXPECT_STDERR=<regex>"] -P ExpectExit.cmake
#
# ctest on its own only tells zero from nonzero; the CLI promises exit 64
# for argument errors specifically.
separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${ArgList}
  RESULT_VARIABLE Code
  OUTPUT_QUIET
  ERROR_VARIABLE Err)
if(NOT "${Code}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${Code}, expected ${EXPECT}\n${Err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT Err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${CMD} ${ARGS}: stderr does not match '${EXPECT_STDERR}'\n${Err}")
endif()
