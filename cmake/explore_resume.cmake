# CTest script: crash-resume correctness for `tcdm_run explore`. Injects a
# fault with --fail-after N (the CLI must exit 3 — an injected abort, not a
# real failure), then reruns on the same --cache and requires the final
# Pareto report to be byte-identical to an uninterrupted run's, with the
# aborted run's simulations answered from the memo store.
#
# Variables (passed with -D):
#   TCDM_RUN  path to the tcdm_run binary
#   SEED      optional: suite seed (default 42)
#   COUNT     optional: scenarios in the generated suite (default 12)
#   OUT_DIR   scratch directory

foreach(var TCDM_RUN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "explore_resume.cmake: missing -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED SEED)
  set(SEED 42)
endif()
if(NOT DEFINED COUNT)
  set(COUNT 12)
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(suite "${OUT_DIR}/suite.json")

execute_process(
  COMMAND "${TCDM_RUN}" gen --seed ${SEED} --count ${COUNT} --out "${suite}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen failed (exit ${rc})")
endif()

# Uninterrupted reference run.
execute_process(
  COMMAND "${TCDM_RUN}" explore --report "${OUT_DIR}/reference.json" "${suite}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference explore failed (exit ${rc})")
endif()

# Interrupted run: abort after 3 simulations. Exit code 3 distinguishes the
# injected fault from a scenario failure (1) or an IO/usage error (2).
execute_process(
  COMMAND "${TCDM_RUN}" explore --cache "${OUT_DIR}/cache.jsonl"
          --fail-after 3 "${suite}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "--fail-after run: expected exit 3, got ${rc}")
endif()

# Rerun on the same cache: the cached simulations are reused and the search
# completes with a frontier byte-identical to the uninterrupted run's.
execute_process(
  COMMAND "${TCDM_RUN}" explore --cache "${OUT_DIR}/cache.jsonl"
          --report "${OUT_DIR}/resumed.json" "${suite}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rerun on the cache failed (exit ${rc})")
endif()
if(NOT out MATCHES " cache_hits=([0-9]+) ")
  message(FATAL_ERROR "rerun printed no summary line: ${out}")
endif()
if(CMAKE_MATCH_1 LESS 3)
  message(FATAL_ERROR
          "rerun answered ${CMAKE_MATCH_1} points from the cache, expected >= 3")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${OUT_DIR}/reference.json" "${OUT_DIR}/resumed.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed frontier differs from the uninterrupted run")
endif()

message(STATUS "fail-after abort (exit 3) + rerun on the cache reproduces the reference")
