# Run a command and require a specific exit code — CTest's WILL_FAIL
# only distinguishes zero from nonzero, but phpfc's contract is finer
# (0 ok, 1 failures, 2 usage).
#
#   cmake -DPHPFC=<binary> -DARGS=<;-separated args> -DEXPECT=<code>
#         -P expect_exit.cmake
if(NOT DEFINED PHPFC OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "expect_exit.cmake needs -DPHPFC= and -DEXPECT=")
endif()
separate_arguments(cmd_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PHPFC}" ${cmd_args} RESULT_VARIABLE code)
if(NOT code EQUAL ${EXPECT})
  message(FATAL_ERROR
          "phpfc ${ARGS}: exit code ${code}, expected ${EXPECT}")
endif()
