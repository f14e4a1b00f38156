# Runs COMMAND (a list: program then arguments) and fails unless it exits
# with code EXPECT. Lets a ctest pin one specific non-zero exit code, which
# WILL_FAIL (any non-zero) cannot. With EXPECT_OUTPUT set, the command's
# standard output must also contain that text.
#
#   cmake -DEXPECT=3 "-DCOMMAND=prog;arg1;arg2" -P expect_exit.cmake
execute_process(COMMAND ${COMMAND} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit code ${EXPECT}, got ${rc}")
endif()
if(DEFINED EXPECT_OUTPUT)
  string(FIND "${out}" "${EXPECT_OUTPUT}" at)
  if(at LESS 0)
    message(FATAL_ERROR "output lacks '${EXPECT_OUTPUT}'")
  endif()
endif()
