# Runs PROGRAM with the ;-separated ARGS and passes only when it exits
# non-zero (exactly STATUS, when given) and its stderr contains EXPECT.
# The environment is inherited, so the ctest ENVIRONMENT property sets
# whatever the case needs.
#
#   cmake -DPROGRAM=<exe> -DARGS=<a;b;c> -DEXPECT=<text> [-DSTATUS=<n>] \
#         -P expect_error_exit.cmake
execute_process(COMMAND ${PROGRAM} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited 0; expected a failure\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED STATUS AND NOT status EQUAL STATUS)
    message(FATAL_ERROR "${PROGRAM} exited '${status}'; expected "
                        "'${STATUS}'\nstderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" found)
if(found EQUAL -1)
    message(FATAL_ERROR "${PROGRAM} exited '${status}' without the "
                        "expected message '${EXPECT}'\nstderr:\n${err}")
endif()
