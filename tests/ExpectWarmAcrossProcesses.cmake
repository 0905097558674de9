# Fails unless the `.ppdb` sidecar one `ppd run` process writes is adopted
# warm by a later `ppd debug` process:
#
#   cmake -DPPD=<ppd> -DPROGRAM=<file.ppl> -DLOG=<log path> \
#         -P ExpectWarmAcrossProcesses.cmake
#
# The sidecar is keyed by the program fingerprint; one that differed
# between two compiles of the same source would make every open silently
# cold, which no in-process test can see.
file(REMOVE "${LOG}" "${LOG}.ppdb")
execute_process(COMMAND "${PPD}" run "${PROGRAM}" --save-log "${LOG}"
  RESULT_VARIABLE Code
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err)
if(NOT "${Code}" STREQUAL "0")
  message(FATAL_ERROR "ppd run: exit ${Code}\n${Out}${Err}")
endif()
file(WRITE "${LOG}.cmds" "where 0\n")
execute_process(COMMAND "${PPD}" debug "${PROGRAM}" --log "${LOG}"
  INPUT_FILE "${LOG}.cmds"
  RESULT_VARIABLE Code
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err)
file(REMOVE "${LOG}" "${LOG}.ppdb" "${LOG}.cmds")
if(NOT "${Code}" STREQUAL "0")
  message(FATAL_ERROR "ppd debug: exit ${Code}\n${Out}${Err}")
endif()
string(FIND "${Out}" "(warm)" Warm)
if(Warm EQUAL -1)
  message(FATAL_ERROR "ppd debug did not adopt the sidecar warm:\n${Out}${Err}")
endif()
