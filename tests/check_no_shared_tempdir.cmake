# Fails when a test source calls ::testing::TempDir() directly.  ctest runs
# tests in parallel, so a fixed file name under the shared temp directory is
# written by every test that uses it; testutil::test_temp_dir() in
# tests/test_util.hpp gives each test its own directory and is the one place
# allowed to call TempDir().
#
#   cmake -DTEST_DIR=<tests source dir> -P check_no_shared_tempdir.cmake
if(NOT TEST_DIR)
  message(FATAL_ERROR "pass -DTEST_DIR=<tests source dir>")
endif()
file(GLOB sources "${TEST_DIR}/*.cpp")
if(NOT sources)
  message(FATAL_ERROR "no test sources under ${TEST_DIR}")
endif()
set(offenders "")
foreach(src IN LISTS sources)
  file(STRINGS "${src}" hits REGEX "TempDir")
  if(hits)
    list(APPEND offenders "${src}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR
    "::testing::TempDir used directly; call testutil::test_temp_dir():\n"
    "  ${listing}")
endif()
