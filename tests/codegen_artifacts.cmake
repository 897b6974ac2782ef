# Runs examples/codegen_flow in OUT_DIR (it writes into ./codegen_out/)
# and checks that it wrote the full artifact set, each file non-empty.
# Invoked by the example_codegen_flow ctest entry with
# -DCODEGEN_FLOW=<path> -DOUT_DIR=<dir>.
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
execute_process(COMMAND ${CODEGEN_FLOW} WORKING_DIRECTORY ${OUT_DIR}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "codegen_flow failed (exit ${rc}):\n${err}")
endif()

foreach(artifact design_top.vhd pdr_executive_pkg.vhd D1.vhd F1.vhd DSP_executive.c
                 application.m4 executive.txt schedule.txt floorplan.txt
                 initial_full.bit qpsk_partial.bit qam16_partial.bit)
  set(path ${OUT_DIR}/codegen_out/${artifact})
  if(NOT EXISTS ${path})
    message(FATAL_ERROR "codegen_flow did not write ${artifact}")
  endif()
  file(SIZE ${path} size)
  if(size EQUAL 0)
    message(FATAL_ERROR "codegen_flow wrote an empty ${artifact}")
  endif()
endforeach()
