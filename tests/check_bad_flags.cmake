# Every flag set given must make BIN exit 2 (bad flags) before it binds or
# spawns anything. Each set is one argument after `--` (which keeps cmake
# from reading the sets as its own options); PREFIX (optional) is prepended
# to every set.
#
#   cmake -DBIN=<binary> [-DPREFIX=<flags>] -P check_bad_flags.cmake -- \
#         "<flag set>" ["<flag set>" ...]
set(first_set -1)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(first_set GREATER -1)
    break()
  endif()
  if(CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR first_set "${i} + 2")
  endif()
endforeach()
if(CMAKE_ARGV${first_set} STREQUAL "--")
  math(EXPR first_set "${first_set} + 1")
endif()
if(first_set GREATER last_arg)
  message(FATAL_ERROR "no flag sets given")
endif()

separate_arguments(prefix UNIX_COMMAND "${PREFIX}")
foreach(i RANGE ${first_set} ${last_arg})
  set(flags "${CMAKE_ARGV${i}}")
  separate_arguments(args UNIX_COMMAND "${flags}")
  execute_process(COMMAND ${BIN} ${prefix} ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET TIMEOUT 10)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${BIN} ${PREFIX} ${flags}: exit ${rc}, want 2")
  endif()
endforeach()
