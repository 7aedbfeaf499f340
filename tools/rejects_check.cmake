# Runs a command line that must be refused as a usage error:
#
#   cmake -DMESSAGE=<regex> -P rejects_check.cmake -- <command> [args...]
#
# Fails unless the command exits with status 2 and its output (stdout and
# stderr together) matches MESSAGE. A refusal that prints the message but
# goes on to run, or exits with another status, fails.
cmake_minimum_required(VERSION 3.22)

set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(command STREQUAL "")
  message(FATAL_ERROR "no command after --")
endif()

execute_process(COMMAND ${command} OUTPUT_VARIABLE out ERROR_VARIABLE out
                RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got ${rc}")
endif()
if(NOT out MATCHES "${MESSAGE}")
  message(FATAL_ERROR "output does not match '${MESSAGE}'")
endif()
