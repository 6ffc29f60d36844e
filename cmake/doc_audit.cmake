# CTest script: the documentation's cross-references are part of the
# contract surface. Every invariant name (D1, EV2, P1, S3, ...) the docs
# cite must still appear somewhere in the first-party sources, every
# tests/test_*.cpp file the docs name as an invariant's enforcing test must
# exist, and every --flag the docs mention must still be spelled somewhere
# in the CLI/tooling surface (tools, cmake scripts, CI workflows). A doc
# that outlives a rename fails here instead of drifting silently — the
# mirror image of usage_audit.cmake, which checks the code side.
#
# Variables (passed with -D):
#   SOURCE_DIR  repository root

cmake_policy(SET CMP0057 NEW) # IN_LIST operator in script mode

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "doc_audit.cmake: missing -DSOURCE_DIR=...")
endif()

set(doc_files
  "${SOURCE_DIR}/docs/CONCURRENCY.md"
  "${SOURCE_DIR}/docs/ARCHITECTURE.md"
  "${SOURCE_DIR}/README.md")

set(docs "")
foreach(doc ${doc_files})
  if(NOT EXISTS "${doc}")
    message(FATAL_ERROR "doc_audit: documented file ${doc} does not exist")
  endif()
  file(READ "${doc}" content)
  string(APPEND docs "${content}")
endforeach()

# ---- corpora -----------------------------------------------------------
# Code corpus: where invariant names must live (comments and error strings
# in first-party sources).
file(GLOB_RECURSE code_files
  "${SOURCE_DIR}/src/*.hpp" "${SOURCE_DIR}/src/*.cpp"
  "${SOURCE_DIR}/tests/*.hpp" "${SOURCE_DIR}/tests/*.cpp"
  "${SOURCE_DIR}/tools/*.cpp")
set(code "")
foreach(f ${code_files})
  file(READ "${f}" content)
  string(APPEND code "${content}")
endforeach()

# Flag corpus: where documented --flags must be spelled. CLI parsers live
# in src/ as well as tools/ (check_regression forwards to
# src/analytics/metrics_regression.cpp), examples carry their own flags,
# and the cmake scripts / CI workflows exercise the documented surface.
file(GLOB extra_flag_files
  "${SOURCE_DIR}/examples/*.cpp"
  "${SOURCE_DIR}/cmake/*.cmake" "${SOURCE_DIR}/.github/workflows/*.yml")
list(APPEND extra_flag_files "${SOURCE_DIR}/CMakeLists.txt")
set(flags_corpus "${code}")
foreach(f ${extra_flag_files})
  file(READ "${f}" content)
  string(APPEND flags_corpus "${content}")
endforeach()

# Flags owned by third-party tools the docs legitimately mention (their
# spelling is not this repo's to keep in sync).
set(external_flags --output-on-failure)

# ---- check 1: invariant names ------------------------------------------
# Split the docs on non-alphanumerics so adjacent citations ("S1-S3",
# "(P2)") tokenize cleanly, then collect everything shaped like an
# invariant name.
string(REGEX REPLACE "[^A-Za-z0-9]+" ";" doc_words "${docs}")
set(invariants "")
foreach(w ${doc_words})
  if(w MATCHES "^(D[0-9]+|EV[0-9]+|P[0-9]+|S[0-9]+)$")
    list(APPEND invariants "${w}")
  endif()
endforeach()
list(REMOVE_DUPLICATES invariants)
list(SORT invariants)

set(missing "")
foreach(tok ${invariants})
  string(FIND "${code}" "${tok}" pos)
  if(pos EQUAL -1)
    list(APPEND missing "${tok}")
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR
          "doc_audit: invariant names cited in the docs no longer appear "
          "anywhere in src/, tests/ or tools/: ${missing}")
endif()
list(LENGTH invariants n_inv)

# ---- check 2: cited test files -----------------------------------------
string(REGEX MATCHALL "test_[a-z0-9_]+\\.cpp" doc_tests "${docs}")
list(REMOVE_DUPLICATES doc_tests)
list(SORT doc_tests)
set(missing "")
foreach(t ${doc_tests})
  if(NOT EXISTS "${SOURCE_DIR}/tests/${t}")
    list(APPEND missing "${t}")
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR
          "doc_audit: the docs cite enforcing tests that do not exist under "
          "tests/: ${missing}")
endif()
list(LENGTH doc_tests n_tests)

# ---- check 3: cited flags ----------------------------------------------
string(REGEX MATCHALL "--[a-z][a-z0-9_-]*[a-z0-9]" doc_flags "${docs}")
list(REMOVE_DUPLICATES doc_flags)
list(SORT doc_flags)
set(missing "")
foreach(flag ${doc_flags})
  if(flag IN_LIST external_flags)
    continue()
  endif()
  string(FIND "${flags_corpus}" "${flag}" pos)
  if(pos EQUAL -1)
    list(APPEND missing "${flag}")
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR
          "doc_audit: the docs cite flags that appear nowhere in src/, "
          "tests/, tools/, examples/, cmake/, CMakeLists.txt or the "
          "CI workflows: ${missing}")
endif()
list(LENGTH doc_flags n_flags)

message(STATUS
        "doc_audit: ${n_inv} invariant names, ${n_tests} cited test files "
        "and ${n_flags} cited flags all resolve")
