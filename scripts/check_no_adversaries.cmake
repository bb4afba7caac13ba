# Copyright (c) saedb authors. Licensed under the MIT license.
#
# Fails unless production code is free of the test-side adversaries.
# Production code is every library under src/ except src/adversary: none
# of its files may mention an adversary hook, and no production target may
# link sae_adversary (LINKS_FILE lists their link libraries, written at
# configure time). Registered as the ctest production_has_no_adversaries:
#
#   cmake -DSRC_DIR=<repo>/src -DLINKS_FILE=<file> \
#         -P scripts/check_no_adversaries.cmake

set(forbidden
  AttackMode
  malicious_sp
  ServePoisonedQuery
  kCtlPoisonQuery
  kCtlShutdown
  BeforeUpdateLocked
  sae_adversary)

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

file(READ "${LINKS_FILE}" links)
if(links MATCHES "sae_adversary")
  list(APPEND offenders "a production library links sae_adversary: ${links}")
endif()

if(offenders)
  list(JOIN offenders "\n  " report)
  message(FATAL_ERROR "production code carries adversaries:\n  ${report}")
endif()
list(LENGTH files checked)
message(STATUS "production code carries no adversaries (${checked} files)")
