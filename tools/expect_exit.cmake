# Runs COMMAND (a list: program then arguments) and fails unless it exits
# with code EXPECT. Lets a ctest pin one specific non-zero exit code, which
# WILL_FAIL (any non-zero) cannot.
#
#   cmake -DEXPECT=3 "-DCOMMAND=prog;arg1;arg2" -P expect_exit.cmake
execute_process(COMMAND ${COMMAND} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit code ${EXPECT}, got ${rc}")
endif()
