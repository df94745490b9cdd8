# Malformed --node / --backup flags must make spotcache_proxy exit 2 (bad
# flags) before it binds anything.
#
#   cmake -DPROXY=<path to spotcache_proxy> -P check_proxy_flags.cmake
set(bad_flag_sets
  "--node=x:127.0.0.1:11211"
  "--node=0:127.0.0.1:11211x"
  "--node=0:127.0.0.1:11211 --node=0:127.0.0.1:11212"
  "--node=0:127.0.0.1"
  "--node=0:127.0.0.1:11211 --backup=127.0.0.1"
  "--node=0:127.0.0.1:11211 --backup=127.0.0.1:11210x"
  "--backup=127.0.0.1:11210"
  "--fleet=/nonexistent --node=0:127.0.0.1:11211"
)
foreach(flags IN LISTS bad_flag_sets)
  separate_arguments(args UNIX_COMMAND "${flags}")
  execute_process(COMMAND ${PROXY} --port=0 ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET TIMEOUT 10)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "spotcache_proxy ${flags}: exit ${rc}, want 2")
  endif()
endforeach()
