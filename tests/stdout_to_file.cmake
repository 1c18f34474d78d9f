# Run BENCH with the space-separated ARGS and write its stdout to OUT.
# A nonzero exit of the bench fails the script, and so the test.
#
#   cmake -DBENCH=<binary> "-DARGS=<args>" -DOUT=<file> -P stdout_to_file.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()
