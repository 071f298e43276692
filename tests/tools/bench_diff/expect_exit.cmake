# Runs bench_diff on two fixture files and checks its exit code:
#   cmake -DBENCH_DIFF=<exe> -DBASE=<json> -DCURRENT=<json> -DEXPECT=<code>
#         -P expect_exit.cmake
execute_process(COMMAND ${BENCH_DIFF} ${BASE} ${CURRENT}
                RESULT_VARIABLE code)
if(NOT code EQUAL EXPECT)
  message(FATAL_ERROR "bench_diff exited ${code}, expected ${EXPECT}")
endif()
