# Layering check for src/ (DESIGN.md §3). Run as
#
#   cmake -DSRC_DIR=<repo>/src -P tests/check_layering.cmake
#
# ESV_LAYERS lists every module under src/ from the bottom up. A module may
# `#include "<other>/..."` and `target_link_libraries` only modules earlier
# in the list, so the include graph and the link graph stay acyclic and
# point downwards. Includes are read as well as links because a header-only
# dependency never shows up as a link edge. A module directory missing from
# the list is an error too: a new module has to be given its place.
cmake_minimum_required(VERSION 3.16)

set(ESV_LAYERS
  common obs minic temporal sim
  mem sctc flash can cpu esw fault chaos stimulus spec
  formal casestudy hybrid gen
  campaign journal dist serve)

if(NOT SRC_DIR OR NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "check_layering: pass -DSRC_DIR=<repo>/src")
endif()

set(violations "")

file(GLOB entries LIST_DIRECTORIES true RELATIVE "${SRC_DIR}" "${SRC_DIR}/*")
foreach(entry IN LISTS entries)
  if(IS_DIRECTORY "${SRC_DIR}/${entry}" AND NOT entry IN_LIST ESV_LAYERS)
    list(APPEND violations "src/${entry} is not in ESV_LAYERS")
  endif()
endforeach()

set(below "")
foreach(module IN LISTS ESV_LAYERS)
  file(GLOB_RECURSE sources "${SRC_DIR}/${module}/*.hpp"
       "${SRC_DIR}/${module}/*.cpp")
  foreach(source IN LISTS sources)
    file(STRINGS "${source}" includes
         REGEX "^[ \t]*#[ \t]*include[ \t]*\"[a-z_]+/")
    foreach(line IN LISTS includes)
      string(REGEX MATCH "\"([a-z_]+)/" _ "${line}")
      set(dep "${CMAKE_MATCH_1}")
      if(dep IN_LIST ESV_LAYERS AND NOT dep STREQUAL module
         AND NOT dep IN_LIST below)
        file(RELATIVE_PATH where "${SRC_DIR}" "${source}")
        list(APPEND violations "src/${where} includes ${dep}/ (above ${module})")
      endif()
    endforeach()
  endforeach()

  file(READ "${SRC_DIR}/${module}/CMakeLists.txt" cmake_text)
  string(REGEX MATCHALL "target_link_libraries\\([^)]*\\)" calls
         "${cmake_text}")
  foreach(call IN LISTS calls)
    string(REGEX MATCHALL "esv_[a-z_]+" libs "${call}")
    foreach(lib IN LISTS libs)
      string(REGEX REPLACE "^esv_" "" dep "${lib}")
      if(dep IN_LIST ESV_LAYERS AND NOT dep STREQUAL module
         AND NOT dep IN_LIST below)
        list(APPEND violations "esv_${module} links ${lib} (above ${module})")
      endif()
    endforeach()
  endforeach()

  list(APPEND below "${module}")
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "layering violations:\n  ${report}")
endif()
list(LENGTH ESV_LAYERS count)
message(STATUS "layering: ${count} modules, includes and links point down")
