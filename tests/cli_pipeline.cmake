# tests/cli_pipeline.cmake — end-to-end CLI test driven by ctest.
#
# gen_testdata writes a synthetic bundle; bdrmapit_cli maps it (native
# and ITDK outputs, plus a binary snapshot); bdrmapit_serve answers
# IFACE queries from the snapshot, which must match the TSV output
# line for line; corrupt snapshots must be rejected; ip2as_cli resolves
# addresses from the bundle's own ground truth file. Any nonzero exit
# or missing/empty output fails.

function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
  endif()
endfunction()

function(check_nonempty path)
  if(NOT EXISTS ${path})
    message(FATAL_ERROR "missing output: ${path}")
  endif()
  file(SIZE ${path} size)
  if(size LESS 64)
    message(FATAL_ERROR "suspiciously small output (${size} bytes): ${path}")
  endif()
endfunction()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

run(${GEN} --out ${OUT}/data --vps 10 --seed 3 --scale small)
check_nonempty(${OUT}/data/traces.txt)
check_nonempty(${OUT}/data/rib.txt)
check_nonempty(${OUT}/data/rels.txt)
check_nonempty(${OUT}/data/ground_truth.tsv)

run(${CLI}
    --traces ${OUT}/data/traces.txt
    --rib ${OUT}/data/rib.txt
    --rels ${OUT}/data/rels.txt
    --delegations ${OUT}/data/delegations.txt
    --ixp ${OUT}/data/ixp.txt
    --aliases ${OUT}/data/aliases.nodes
    --output ${OUT}/annotations.tsv
    --as-links ${OUT}/aslinks.tsv
    --itdk ${OUT}/itdk
    --snapshot-out ${OUT}/map.snap)
check_nonempty(${OUT}/annotations.tsv)
check_nonempty(${OUT}/aslinks.tsv)
check_nonempty(${OUT}/itdk.nodes)
check_nonempty(${OUT}/itdk.nodes.as)
check_nonempty(${OUT}/map.snap)

# ---- serve: every IFACE reply must equal its annotations.tsv row ------
file(STRINGS ${OUT}/annotations.tsv tsv_lines)
set(queries "")
set(expected "")
foreach(line IN LISTS tsv_lines)
  if(NOT line MATCHES "^#")
    string(REGEX REPLACE "\t.*" "" addr "${line}")
    string(APPEND queries "IFACE ${addr}\n")
    string(APPEND expected "${line}\n")
  endif()
endforeach()
file(WRITE ${OUT}/queries.txt "${queries}")
file(WRITE ${OUT}/expected.tsv "${expected}")
execute_process(COMMAND ${SERVE} --snapshot ${OUT}/map.snap --quiet
                INPUT_FILE ${OUT}/queries.txt
                OUTPUT_FILE ${OUT}/replies.tsv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bdrmapit_serve failed (${rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${OUT}/replies.tsv ${OUT}/expected.tsv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve IFACE replies differ from annotations.tsv")
endif()

# Corrupt snapshots must be rejected with a nonzero exit. (Byte-level
# truncation and bit flips are unit-tested in serve_test.cpp; CMake
# script mode cannot splice binary data, so corrupt structurally here.)
configure_file(${OUT}/map.snap ${OUT}/corrupt.snap COPYONLY)
file(APPEND ${OUT}/corrupt.snap "trailing garbage")
execute_process(COMMAND ${SERVE} --snapshot ${OUT}/corrupt.snap --quiet
                INPUT_FILE ${OUT}/queries.txt
                OUTPUT_QUIET ERROR_QUIET
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "bdrmapit_serve accepted a corrupt snapshot")
endif()
file(WRITE ${OUT}/fake.snap "not a snapshot: annotations.tsv pretending\n")
execute_process(COMMAND ${SERVE} --snapshot ${OUT}/fake.snap --quiet
                INPUT_FILE ${OUT}/queries.txt
                OUTPUT_QUIET ERROR_QUIET
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "bdrmapit_serve accepted a non-snapshot file")
endif()

# ---- serve-time audit gate: CRC-valid but invariant-violating ---------
# gen_testdata --tamper-snapshot breaks one structural invariant and
# re-stamps a correct CRC — only the load-time audit can reject it. The
# engine must exit 2 before answering a single query.
foreach(mode unsorted router-range aslink)
  run(${GEN} --tamper-snapshot ${OUT}/map.snap
      --tamper-out ${OUT}/tampered_${mode}.snap --tamper-mode ${mode})
  execute_process(COMMAND ${SERVE} --snapshot ${OUT}/tampered_${mode}.snap --quiet
                  INPUT_FILE ${OUT}/queries.txt
                  OUTPUT_FILE ${OUT}/tampered_${mode}.out
                  ERROR_FILE ${OUT}/tampered_${mode}.err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bdrmapit_serve exit ${rc} (want 2) on ${mode}-tampered snapshot")
  endif()
  file(SIZE ${OUT}/tampered_${mode}.out reply_bytes)
  if(NOT reply_bytes EQUAL 0)
    message(FATAL_ERROR "bdrmapit_serve answered queries from a ${mode}-tampered snapshot")
  endif()
  file(READ ${OUT}/tampered_${mode}.err err_text)
  if(NOT err_text MATCHES "audit violation \\[serve-load\\]")
    message(FATAL_ERROR "no structured audit reason for ${mode}: ${err_text}")
  endif()
endforeach()

# ---- hot snapshot reload (stdin transport, synchronous) ---------------
# A second dataset gives the reload something observable to flip to.
run(${GEN} --out ${OUT}/data2 --vps 10 --seed 11 --scale small)
run(${CLI}
    --traces ${OUT}/data2/traces.txt
    --rib ${OUT}/data2/rib.txt
    --rels ${OUT}/data2/rels.txt
    --delegations ${OUT}/data2/delegations.txt
    --ixp ${OUT}/data2/ixp.txt
    --aliases ${OUT}/data2/aliases.nodes
    --output ${OUT}/annotations2.tsv
    --snapshot-out ${OUT}/map2.snap)
check_nonempty(${OUT}/map2.snap)

# Capture each snapshot's STATS block in isolation, then require the
# reload session's output byte-for-byte: STATS answers from map.snap
# until the successful RELOAD, from map2.snap after it, and both
# failure modes (audit-violating candidate, missing file) leave map2
# serving with a structured ERR detail.
function(capture_stats snap out_var)
  file(WRITE ${OUT}/stats_query.txt "STATS\nQUIT\n")
  execute_process(COMMAND ${SERVE} --snapshot ${snap} --quiet
                  INPUT_FILE ${OUT}/stats_query.txt
                  OUTPUT_VARIABLE text RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "STATS capture failed (${rc}) for ${snap}")
  endif()
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()
capture_stats(${OUT}/map.snap stats1)
capture_stats(${OUT}/map2.snap stats2)
if(stats1 STREQUAL stats2)
  message(FATAL_ERROR "second dataset has identical STATS; reload flip unobservable")
endif()

file(WRITE ${OUT}/reload_session.txt
  "STATS\nRELOAD ${OUT}/map2.snap\nSTATS\nRELOAD ${OUT}/tampered_aslink.snap\nSTATS\nRELOAD ${OUT}/does_not_exist.snap\nSTATS\nQUIT\n")
file(WRITE ${OUT}/reload_expected.txt
  "${stats1}OK\treload\t${OUT}/map2.snap\n${stats2}ERR\treload-failed\taudit-violation\n${stats2}ERR\treload-failed\tno-such-file\n${stats2}")
execute_process(COMMAND ${SERVE} --snapshot ${OUT}/map.snap --quiet
                INPUT_FILE ${OUT}/reload_session.txt
                OUTPUT_FILE ${OUT}/reload_replies.txt
                ERROR_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bdrmapit_serve reload session failed (${rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${OUT}/reload_replies.txt ${OUT}/reload_expected.txt
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ ${OUT}/reload_replies.txt got)
  message(FATAL_ERROR "reload session replies differ from expected:\n${got}")
endif()

# --no-reload demotes RELOAD to a non-admin verb on every transport.
file(WRITE ${OUT}/noreload_query.txt "RELOAD ${OUT}/map2.snap\nQUIT\n")
execute_process(COMMAND ${SERVE} --snapshot ${OUT}/map.snap --quiet --no-reload
                INPUT_FILE ${OUT}/noreload_query.txt
                OUTPUT_VARIABLE noreload_out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--no-reload session failed (${rc})")
endif()
if(NOT noreload_out STREQUAL "ERR\tnot-admin\tRELOAD\n")
  message(FATAL_ERROR "--no-reload RELOAD reply: ${noreload_out}")
endif()

# ---- hot reload over TCP: RELOAD verb, SIGHUP, NETSTATS generation ----
# Needs /dev/tcp and job control, so it only runs where bash exists
# (everywhere we ship CI). The script exercises the asynchronous admin
# path: RELOAD replies OK on queueing, the outcome lands in NETSTATS.
find_program(BASH_EXECUTABLE bash)
if(BASH_EXECUTABLE)
  execute_process(COMMAND ${BASH_EXECUTABLE}
                  ${CMAKE_CURRENT_LIST_DIR}/tcp_reload_smoke.sh
                  ${SERVE} ${OUT}/map.snap ${OUT}/map2.snap
                  ${OUT}/tampered_aslink.snap 18274
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE tcp_out ERROR_VARIABLE tcp_err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tcp reload smoke failed (${rc}):\n${tcp_out}\n${tcp_err}")
  endif()
else()
  message(STATUS "bash not found; skipping tcp reload smoke")
endif()

# ---- threaded run: byte-identical outputs for any thread count --------
# The first run used the CLI default (hardware concurrency); pin 1 and
# 4 explicitly and require identical TSV and snapshot bytes.
foreach(nthreads 1 4)
  run(${CLI}
      --traces ${OUT}/data/traces.txt
      --rib ${OUT}/data/rib.txt
      --rels ${OUT}/data/rels.txt
      --delegations ${OUT}/data/delegations.txt
      --ixp ${OUT}/data/ixp.txt
      --aliases ${OUT}/data/aliases.nodes
      --threads ${nthreads}
      --output ${OUT}/annotations_t${nthreads}.tsv
      --snapshot-out ${OUT}/map_t${nthreads}.snap)
  foreach(pair "annotations_t${nthreads}.tsv;annotations.tsv" "map_t${nthreads}.snap;map.snap")
    list(GET pair 0 got)
    list(GET pair 1 want)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${OUT}/${got} ${OUT}/${want}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "--threads ${nthreads} output ${got} differs from ${want}")
    endif()
  endforeach()
endforeach()

# Malformed --listen values must exit 3 with a one-line diagnostic,
# before the snapshot is even loaded (docs/SERVING.md exit codes).
foreach(bad "nohost" "127.0.0.1" "127.0.0.1:0" "127.0.0.1:99999" ":8264" "[::1]")
  execute_process(COMMAND ${SERVE} --snapshot ${OUT}/map.snap
                  --listen "${bad}" --quiet
                  OUTPUT_QUIET
                  ERROR_FILE ${OUT}/listen_err.txt
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 3)
    message(FATAL_ERROR "bdrmapit_serve exit ${rc} (want 3) for --listen '${bad}'")
  endif()
  file(READ ${OUT}/listen_err.txt err_text)
  if(NOT err_text MATCHES "malformed address")
    message(FATAL_ERROR "no listen diagnostic for '${bad}': ${err_text}")
  endif()
endforeach()

# Invalid --threads values must be rejected up front.
foreach(bad 0 -2 four "")
  execute_process(COMMAND ${CLI}
                  --traces ${OUT}/data/traces.txt
                  --rib ${OUT}/data/rib.txt
                  --rels ${OUT}/data/rels.txt
                  --threads "${bad}"
                  OUTPUT_QUIET ERROR_QUIET
                  RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "bdrmapit_cli accepted --threads '${bad}'")
  endif()
endforeach()

# Numeric serve flags take whole numbers only: a value strtol/strtod
# cannot consume entirely must exit 1 before the snapshot is served.
foreach(flag --threads --max-conns --idle-timeout --rate-limit --rate-burst
             --rate-limit-source --rate-burst-source --rate-limit-source-max)
  foreach(bad "abc" "5x" "")
    execute_process(COMMAND ${SERVE} --snapshot ${OUT}/map.snap --quiet
                    ${flag} "${bad}"
                    INPUT_FILE ${OUT}/queries.txt
                    OUTPUT_FILE ${OUT}/badflag.out
                    ERROR_FILE ${OUT}/badflag.err
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
      message(FATAL_ERROR "bdrmapit_serve exit ${rc} (want 1) for ${flag} '${bad}'")
    endif()
    file(SIZE ${OUT}/badflag.out reply_bytes)
    file(READ ${OUT}/badflag.err err_text)
    if(NOT reply_bytes EQUAL 0 OR NOT err_text MATCHES "${flag} expects")
      message(FATAL_ERROR "no clean rejection of ${flag} '${bad}': ${err_text}")
    endif()
  endforeach()
endforeach()

# Every output the CLI writes is checked: a full device or a missing
# directory is exit 1 with a diagnostic, never a silent success.
# Each leg is "FLAG|PATH"; a later --output overrides the valid one.
set(unwritable "--output|${OUT}/no_such_dir/annotations.tsv"
               "--as-links|${OUT}/no_such_dir/aslinks.tsv"
               "--itdk|${OUT}/no_such_dir/itdk")
if(EXISTS /dev/full)
  list(APPEND unwritable "--output|/dev/full" "--as-links|/dev/full")
endif()
foreach(leg IN LISTS unwritable)
  string(REPLACE "|" ";" leg_args "${leg}")
  execute_process(COMMAND ${CLI}
                  --traces ${OUT}/data/traces.txt
                  --rib ${OUT}/data/rib.txt
                  --rels ${OUT}/data/rels.txt
                  --output ${OUT}/annotations_unwritable.tsv
                  ${leg_args}
                  OUTPUT_QUIET
                  ERROR_FILE ${OUT}/unwritable.err
                  RESULT_VARIABLE rc)
  file(READ ${OUT}/unwritable.err err_text)
  if(NOT rc EQUAL 1 OR NOT err_text MATCHES "error: cannot write")
    message(FATAL_ERROR "bdrmapit_cli exit ${rc} (want 1) writing ${leg}: ${err_text}")
  endif()
endforeach()

# gen_testdata's flags are strict too: a bad --vps or --scale, a flag
# without a value, or an --out that cannot be created is exit 1 with
# one diagnostic and no dataset, never a default Internet or an abort.
function(expect_gen_rejects want flag value)
  file(REMOVE_RECURSE ${OUT}/badgen)
  execute_process(COMMAND ${GEN} --out ${OUT}/badgen --seed 3 ${flag} "${value}"
                  OUTPUT_QUIET
                  ERROR_FILE ${OUT}/badgen.err
                  RESULT_VARIABLE rc)
  file(READ ${OUT}/badgen.err err_text)
  if(NOT rc EQUAL 1 OR NOT err_text MATCHES "${want}" OR EXISTS ${OUT}/badgen)
    message(FATAL_ERROR "gen_testdata exit ${rc} (want 1, no output) for ${flag} '${value}': ${err_text}")
  endif()
endfunction()
foreach(bad "abc" "5x" "")
  expect_gen_rejects("error: --vps expects" --vps "${bad}")
endforeach()
expect_gen_rejects("error: --scale expects" --scale tiny)
expect_gen_rejects("error: cannot create" --out ${OUT}/data/traces.txt/sub)
file(REMOVE_RECURSE ${OUT}/badgen)
execute_process(COMMAND ${GEN} --out ${OUT}/badgen --vps
                OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR EXISTS ${OUT}/badgen)
  message(FATAL_ERROR "gen_testdata exit ${rc} (want 1, no output) for a trailing --vps")
endif()

# An ablation switch must also run cleanly.
run(${CLI}
    --traces ${OUT}/data/traces.txt
    --rib ${OUT}/data/rib.txt
    --rels ${OUT}/data/rels.txt
    --no-third-party --no-hidden-as
    --output ${OUT}/annotations_ablate.tsv)
check_nonempty(${OUT}/annotations_ablate.tsv)

# ip2as_cli over a handful of addresses pulled from ground truth.
file(STRINGS ${OUT}/data/ground_truth.tsv gt_lines LIMIT_COUNT 12)
set(addr_file ${OUT}/addrs.txt)
file(WRITE ${addr_file} "")
foreach(line IN LISTS gt_lines)
  if(NOT line MATCHES "^#")
    string(REGEX REPLACE "\t.*" "" addr "${line}")
    file(APPEND ${addr_file} "${addr}\n")
  endif()
endforeach()
execute_process(COMMAND ${IP2AS} --rib ${OUT}/data/rib.txt --addrs ${addr_file}
                OUTPUT_FILE ${OUT}/ip2as.tsv RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ip2as_cli failed")
endif()
check_nonempty(${OUT}/ip2as.tsv)

# ip2as_cli checks its inputs and its output: a missing table file or
# a full stdout is exit 1 with one diagnostic, with no rows and no
# "resolved" summary. Each leg is "DIAGNOSTIC|STDOUT|ARGS...".
set(bad_ip2as
    "cannot open|${OUT}/ip2as_bad.tsv|--delegations|${OUT}/no_such_dir/delegations.txt"
    "cannot open|${OUT}/ip2as_bad.tsv|--ixp|${OUT}/no_such_dir/ixp.txt")
if(EXISTS /dev/full)
  list(APPEND bad_ip2as "cannot write standard output|/dev/full")
endif()
foreach(leg IN LISTS bad_ip2as)
  string(REPLACE "|" ";" leg_args "${leg}")
  list(POP_FRONT leg_args want stdout_file)
  file(REMOVE ${OUT}/ip2as_bad.tsv)
  execute_process(COMMAND ${IP2AS} --rib ${OUT}/data/rib.txt --addrs ${addr_file}
                  ${leg_args}
                  OUTPUT_FILE ${stdout_file}
                  ERROR_FILE ${OUT}/ip2as_bad.err
                  RESULT_VARIABLE rc)
  file(READ ${OUT}/ip2as_bad.err err_text)
  set(rows 0)
  if(EXISTS ${OUT}/ip2as_bad.tsv)
    file(SIZE ${OUT}/ip2as_bad.tsv rows)
  endif()
  if(NOT rc EQUAL 1 OR NOT err_text MATCHES "error: ${want}" OR
     err_text MATCHES "resolved" OR NOT rows EQUAL 0)
    message(FATAL_ERROR "ip2as_cli exit ${rc} (want 1, no rows) for '${leg}': ${err_text}")
  endif()
endforeach()

message(STATUS "cli pipeline OK")
