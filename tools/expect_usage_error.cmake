# Runs TOOL with the space-separated ARGS and fails unless it exits with
# status 1 and names FLAG on stderr: a usage error, not a crash and not a
# run that went ahead. FLAG may be any stderr text, e.g. a load error.
#
#   cmake -DTOOL=<exe> "-DARGS=--pps 0" -DFLAG=--pps -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'\n${out}${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}:\n${err}")
endif()
