# Copyright (c) saedb authors. Licensed under the MIT license.
#
# Fails unless production code is free of a list of forbidden words.
# Production code is every library under src/ except src/adversary: none
# of its files may mention a forbidden word. By default the words are the
# test-side adversary hooks, and no production target may link
# sae_adversary (LINKS_FILE lists their link libraries, written at
# configure time). Registered as the ctest production_has_no_adversaries:
#
#   cmake -DSRC_DIR=<repo>/src -DLINKS_FILE=<file> \
#         -P scripts/check_no_adversaries.cmake
#
# WORDS (comma-separated) replaces the default list. Registered with the
# names of removed test-only APIs as the ctest src_has_no_test_only_api:
#
#   cmake -DSRC_DIR=<repo>/src -DWORDS=NameA,NameB \
#         -P scripts/check_no_adversaries.cmake

if(DEFINED WORDS)
  string(REPLACE "," ";" forbidden "${WORDS}")
  set(what "names of removed test-only APIs")
else()
  set(forbidden
    AttackMode
    malicious_sp
    ServePoisonedQuery
    kCtlPoisonQuery
    kCtlShutdown
    BeforeUpdateLocked
    sae_adversary)
  set(what "adversaries")
endif()

set(offenders "")
file(GLOB_RECURSE files "${SRC_DIR}/*")
foreach(path IN LISTS files)
  if(path MATCHES "^${SRC_DIR}/adversary/")
    continue()
  endif()
  file(READ "${path}" content)
  foreach(word IN LISTS forbidden)
    string(FIND "${content}" "${word}" at)
    if(NOT at EQUAL -1)
      list(APPEND offenders "${path} mentions ${word}")
    endif()
  endforeach()
endforeach()

if(DEFINED LINKS_FILE)
  file(READ "${LINKS_FILE}" links)
  if(links MATCHES "sae_adversary")
    list(APPEND offenders "a production library links sae_adversary: ${links}")
  endif()
endif()

if(offenders)
  list(JOIN offenders "\n  " report)
  message(FATAL_ERROR "production code carries ${what}:\n  ${report}")
endif()
list(LENGTH files checked)
message(STATUS "production code carries no ${what} (${checked} files)")
