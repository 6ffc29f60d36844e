# CTest script: the tier-1 baseline gate. Emits one suite and compares it
# with its recorded baseline through check_regression, whose per-metric
# tolerances absorb the last-digit differences a different compiler may
# produce (a byte comparison would not).
#
# Variables (passed with -D):
#   TCDM_RUN          path to the tcdm_run binary
#   CHECK_REGRESSION  path to the check_regression binary
#   SUITE             the suite to emit (also names baselines/<suite>.json)
#   BASELINE_DIR      directory of the recorded baselines
#   OUT_DIR           scratch directory
#   FILE              optional: a tcdm-scenarios suite file; the suite is
#                     then loaded with `--no-builtin --file`

foreach(var TCDM_RUN CHECK_REGRESSION SUITE BASELINE_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "baseline_gate.cmake: missing -D${var}=...")
  endif()
endforeach()

set(source_args "${SUITE}")
if(DEFINED FILE)
  set(source_args --no-builtin --file "${FILE}")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")

execute_process(
  COMMAND "${TCDM_RUN}" emit --out "${OUT_DIR}" ${source_args}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "emit of ${SUITE} failed (exit ${rc})")
endif()

execute_process(
  COMMAND "${CHECK_REGRESSION}" "${BASELINE_DIR}/${SUITE}.json" "${OUT_DIR}/${SUITE}.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SUITE} moved against ${BASELINE_DIR}/${SUITE}.json (exit ${rc})")
endif()
