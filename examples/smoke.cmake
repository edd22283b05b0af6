# Runs every example except quickstart (the trace tests run that one) once
# and fails on the first non-zero exit.
#   cmake -DBIN=<directory of the example binaries> -P smoke.cmake
foreach(cmd heat_grid sparse_solver particles translate_demo mpi_vs_dynmpi
        "playground;sor;4;120")
  list(POP_FRONT cmd exe)
  execute_process(COMMAND ${BIN}/${exe} ${cmd}
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${exe} exited with ${rc}")
  endif()
endforeach()
