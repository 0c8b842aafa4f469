# Runs a command and checks both its exit code and its output.  ctest's
# PASS_REGULAR_EXPRESSION on its own ignores the exit code, so a tool that
# printed the expected message and then exited 0 or 1 would still pass.  The
# command's stdout and stderr are matched together, and echoed.
#
#   cmake -DEXPECT_EXIT=<code> -DEXPECT_OUTPUT=<regex>
#         -P check_exit_and_output.cmake -- <command> [args...]
#
# syncpat_add_exit_test() in the top-level CMakeLists.txt wraps this.
if(NOT DEFINED EXPECT_EXIT OR NOT DEFINED EXPECT_OUTPUT)
  message(FATAL_ERROR "pass -DEXPECT_EXIT=<code> -DEXPECT_OUTPUT=<regex>")
endif()
set(command "")
set(in_command FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "no command after --")
endif()
execute_process(COMMAND ${command}
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
message("${output}")
if(NOT "${exit_code}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit code ${exit_code}, expected ${EXPECT_EXIT}")
endif()
if(NOT "${output}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match \"${EXPECT_OUTPUT}\"")
endif()
