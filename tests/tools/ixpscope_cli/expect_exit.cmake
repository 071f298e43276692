# Runs ixpscope (or another tool) once and checks its exit code:
#   cmake -DIXPSCOPE=<exe> -DARGS=<arg|arg|...> -DEXPECT=<code>
#         [-DSAME_AS=<arg|arg|...>] [-DFILE_SHA256=<path>=<hex>]
#         [-DSTDERR_REGEX=<regex>] -P expect_exit.cmake
# Arguments are '|'-separated (add_test would split a ';' list). With
# SAME_AS, a second run with those arguments must exit with the same code
# and print byte-identical stdout and stderr. With FILE_SHA256, the file
# at <path> must exist after the run and hash to <hex>. With STDERR_REGEX,
# the run's stderr must match <regex>.
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" " " shown "${ARGS}")
execute_process(COMMAND ${IXPSCOPE} ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL EXPECT)
  message(FATAL_ERROR "ixpscope ${shown} exited ${code}, expected ${EXPECT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()

if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "ixpscope ${shown}: stderr does not match "
                      "'${STDERR_REGEX}':\n${err}")
endif()

if(DEFINED SAME_AS)
  string(REPLACE "|" ";" other "${SAME_AS}")
  string(REPLACE "|" " " other_shown "${SAME_AS}")
  execute_process(COMMAND ${IXPSCOPE} ${other}
                  RESULT_VARIABLE other_code OUTPUT_VARIABLE other_out
                  ERROR_VARIABLE other_err)
  if(NOT other_code EQUAL code)
    message(FATAL_ERROR "ixpscope ${other_shown} exited ${other_code}, "
                        "ixpscope ${shown} exited ${code}")
  endif()
  if(NOT other_out STREQUAL out)
    message(FATAL_ERROR "stdout differs:\n--- ${shown}\n${out}\n"
                        "--- ${other_shown}\n${other_out}")
  endif()
  if(NOT other_err STREQUAL err)
    message(FATAL_ERROR "stderr differs:\n--- ${shown}\n${err}\n"
                        "--- ${other_shown}\n${other_err}")
  endif()
endif()

if(DEFINED FILE_SHA256)
  string(FIND "${FILE_SHA256}" "=" split REVERSE)
  if(split LESS 1)
    message(FATAL_ERROR "FILE_SHA256 must be <path>=<hex>, got ${FILE_SHA256}")
  endif()
  string(SUBSTRING "${FILE_SHA256}" 0 ${split} path)
  math(EXPR split "${split} + 1")
  string(SUBSTRING "${FILE_SHA256}" ${split} -1 expected)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "ixpscope ${shown} did not write ${path}")
  endif()
  file(SHA256 "${path}" actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${path}: SHA-256 ${actual}, expected ${expected}")
  endif()
endif()
