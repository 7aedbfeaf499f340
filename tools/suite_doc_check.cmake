# Runs one paper suite and checks its summary block against the document
# that holds it:
#
#   cmake -DSCENARIOS=<mgq_scenarios> -DSUITE=<name> -DJSON_DIR=<dir>
#         -DDOC=<EXPERIMENTS.md> -P suite_doc_check.cmake
#
# Fails when the suite exits nonzero, or when the block it prints from
# `<!-- suite:NAME -->` to `<!-- /suite:NAME -->` differs byte for byte
# from the same block in DOC; then it prints the fresh block, which is
# what to paste into DOC when the change is intended. With MGQ_GOLDEN_SKIP
# set in the environment only the exit code counts.
cmake_minimum_required(VERSION 3.22)

execute_process(COMMAND ${SCENARIOS} --suite ${SUITE} --json-dir ${JSON_DIR}
                OUTPUT_VARIABLE out ECHO_OUTPUT_VARIABLE RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "suite ${SUITE} exited with ${rc}")
endif()
if(DEFINED ENV{MGQ_GOLDEN_SKIP})
  return()
endif()

# The text from the opening marker through the closing one; empty when
# either is missing.
function(suite_block text result)
  set(open "<!-- suite:${SUITE} -->")
  set(close "<!-- /suite:${SUITE} -->")
  string(FIND "${text}" "${open}" begin)
  string(FIND "${text}" "${close}" end)
  set(${result} "" PARENT_SCOPE)
  if(begin EQUAL -1 OR end LESS begin)
    return()
  endif()
  string(LENGTH "${close}" close_length)
  math(EXPR length "${end} + ${close_length} - ${begin}")
  string(SUBSTRING "${text}" ${begin} ${length} block)
  set(${result} "${block}" PARENT_SCOPE)
endfunction()

suite_block("${out}" fresh)
if(fresh STREQUAL "")
  message(FATAL_ERROR "suite ${SUITE} printed no summary block")
endif()
file(READ "${DOC}" doc)
suite_block("${doc}" checked_in)
if(NOT fresh STREQUAL checked_in)
  # A plain message keeps the block's bytes; FATAL_ERROR would reflow it.
  message("${DOC} does not hold suite ${SUITE}'s block as printed. The "
          "fresh block:\n${fresh}")
  message(FATAL_ERROR "suite ${SUITE}: block differs from ${DOC}")
endif()
