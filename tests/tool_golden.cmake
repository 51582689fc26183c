# Runs one tool command and checks its result; used by ctest (see
# tests/CMakeLists.txt). Invocation:
#
#   cmake -DOUTPUT=<file> -DGOLDEN=<file> [-DDROP_REGEX=<regex>]
#         -P tool_golden.cmake -- <tool> <args...>
#     The command must exit 0 and write OUTPUT; lines of OUTPUT matching
#     DROP_REGEX are removed, then the rest must equal GOLDEN byte for byte
#     but for the run manifest's build= token, masked on both sides.
#
#   cmake -DEXPECT_ERROR=<regex> -P tool_golden.cmake -- <tool> <args...>
#     The command must exit non-zero and print an `error:` line on stderr
#     matching EXPECT_ERROR.
#
#   cmake -DEXPECT_EXIT=<code> -P tool_golden.cmake -- <tool> <args...>
#     The command must exit with status EXPECT_EXIT.
set(cmd "")
set(in_cmd FALSE)
foreach(i RANGE ${CMAKE_ARGC})
  if(in_cmd AND DEFINED CMAKE_ARGV${i})
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "tool_golden.cmake: no command after --")
endif()

if(DEFINED OUTPUT)
  # A stale copy from an earlier run must not pass for this one.
  file(REMOVE "${OUTPUT}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err TIMEOUT 120)

if(DEFINED EXPECT_EXIT)
  if(NOT rc STREQUAL "${EXPECT_EXIT}")
    message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got ${rc}:\n${err}")
  endif()
  return()
endif()

if(DEFINED EXPECT_ERROR)
  if(rc EQUAL 0)
    message(FATAL_ERROR "expected a failure, but the command succeeded")
  endif()
  if(NOT err MATCHES "error: [^\n]*${EXPECT_ERROR}")
    message(FATAL_ERROR "exit ${rc}; stderr does not match "
                        "'error: ...${EXPECT_ERROR}':\n${err}")
  endif()
  return()
endif()

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command failed (${rc}):\n${err}")
endif()
set(actual "${OUTPUT}")
if(DEFINED DROP_REGEX)
  file(STRINGS "${OUTPUT}" lines)
  list(FILTER lines EXCLUDE REGEX "${DROP_REGEX}")
  list(JOIN lines "\n" text)
  set(actual "${OUTPUT}.kept")
  file(WRITE "${actual}" "${text}\n")
endif()
# The manifest line's build= token names the build type the tool was
# compiled as (telemetry/manifest.cpp stamps it from NDEBUG); it is
# informational, so every build type must match the same golden.
file(READ "${actual}" actual_text)
file(READ "${GOLDEN}" golden_text)
set(build_token "(# fgqos-manifest [^\n]*) build=[^ \n]*")
string(REGEX REPLACE "${build_token}" "\\1 build=*" actual_text
       "${actual_text}")
string(REGEX REPLACE "${build_token}" "\\1 build=*" golden_text
       "${golden_text}")
if(NOT actual_text STREQUAL golden_text)
  message(FATAL_ERROR "${actual} differs from ${GOLDEN}")
endif()
