# Runs every experiment at the test scale and pins exp_paper's stdout:
#   cmake -DEXP_PAPER=<exe> -DEXPECT_SHA256=<hex> -P exp_paper_quick.cmake
# It runs once at --threads 1 and once at --threads 4. Each run must exit
# 0, and its stdout, with every "built in <digits> ms" (the model-build
# time) replaced by "built in N ms", must hash to EXPECT_SHA256.
set(ENV{IXPSCOPE_QUICK} 1)
unset(ENV{IXPSCOPE_VOLUME})
foreach(threads 1 4)
  execute_process(COMMAND ${EXP_PAPER} --threads ${threads}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "exp_paper --threads ${threads} exited ${code}\n"
                        "stderr:\n${err}")
  endif()
  string(REGEX REPLACE "built in [0-9]+ ms" "built in N ms" masked "${out}")
  string(SHA256 actual "${masked}")
  if(NOT actual STREQUAL EXPECT_SHA256)
    message(FATAL_ERROR "exp_paper --threads ${threads}: masked stdout has "
                        "SHA-256 ${actual}, expected ${EXPECT_SHA256}:\n"
                        "${masked}")
  endif()
endforeach()
