# End-to-end exercise of the mapit CLI: synthesize datasets, run MAP-IT on
# them, print stats, and check the outputs exist and parse.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${MAPIT_BIN} simulate --out ${WORK_DIR} --seed 9
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed (${rc}): ${out}${err}")
endif()

foreach(f traces.txt rib.txt relationships.txt as2org.txt ixps.txt)
  if(NOT EXISTS ${WORK_DIR}/${f})
    message(FATAL_ERROR "simulate did not write ${f}")
  endif()
endforeach()

execute_process(
  COMMAND ${MAPIT_BIN} run
    --traces ${WORK_DIR}/traces.txt
    --rib ${WORK_DIR}/rib.txt
    --relationships ${WORK_DIR}/relationships.txt
    --as2org ${WORK_DIR}/as2org.txt
    --ixps ${WORK_DIR}/ixps.txt
    --output ${WORK_DIR}/inferences.txt
    --uncertain ${WORK_DIR}/uncertain.txt
    --threads 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run failed (${rc}): ${out}${err}")
endif()
if(NOT err MATCHES "confident inferences")
  message(FATAL_ERROR "run did not report inference counts: ${err}")
endif()

file(STRINGS ${WORK_DIR}/inferences.txt inference_lines)
list(LENGTH inference_lines n)
if(n LESS 10)
  message(FATAL_ERROR "suspiciously few inferences written (${n} lines)")
endif()

execute_process(
  COMMAND ${MAPIT_BIN} stats --traces ${WORK_DIR}/traces.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "graph interfaces")
  message(FATAL_ERROR "stats failed (${rc}): ${out}${err}")
endif()

# Unknown arguments must be rejected.
execute_process(
  COMMAND ${MAPIT_BIN} run --traces ${WORK_DIR}/traces.txt
          --rib ${WORK_DIR}/rib.txt --bogus-flag
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown argument was not rejected")
endif()

message(STATUS "cli end-to-end OK (${n} inference lines)")

# Truth file + eval subcommand.
if(NOT EXISTS ${WORK_DIR}/truth.txt)
  message(FATAL_ERROR "simulate did not write truth.txt")
endif()
execute_process(
  COMMAND ${MAPIT_BIN} eval --inferences ${WORK_DIR}/inferences.txt
          --truth ${WORK_DIR}/truth.txt --target 1000
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "matched by inferences")
  message(FATAL_ERROR "eval failed (${rc}): ${out}${err}")
endif()

# Unknown subcommands must exit nonzero with usage on stderr, stdout clean.
execute_process(
  COMMAND ${MAPIT_BIN} frobnicate
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown subcommand was not rejected")
endif()
if(NOT err MATCHES "usage:" OR NOT out STREQUAL "")
  message(FATAL_ERROR "unknown subcommand: usage must go to stderr only "
          "(stdout='${out}', stderr='${err}')")
endif()

# Snapshot -> query round trip: build the artifact twice (4 threads, then
# 1; the count is explicit so a 1-CPU runner still compares two different
# counts) and require byte-identical files, then check query answers match
# the run output line for line.
execute_process(
  COMMAND ${MAPIT_BIN} snapshot
    --traces ${WORK_DIR}/traces.txt
    --rib ${WORK_DIR}/rib.txt
    --relationships ${WORK_DIR}/relationships.txt
    --as2org ${WORK_DIR}/as2org.txt
    --ixps ${WORK_DIR}/ixps.txt
    --out ${WORK_DIR}/snapshot.bin
    --threads 4
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "crc32")
  message(FATAL_ERROR "snapshot failed (${rc}): ${out}${err}")
endif()

execute_process(
  COMMAND ${MAPIT_BIN} snapshot
    --traces ${WORK_DIR}/traces.txt
    --rib ${WORK_DIR}/rib.txt
    --relationships ${WORK_DIR}/relationships.txt
    --as2org ${WORK_DIR}/as2org.txt
    --ixps ${WORK_DIR}/ixps.txt
    --out ${WORK_DIR}/snapshot2.bin
    --threads 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second snapshot failed (${rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/snapshot.bin ${WORK_DIR}/snapshot2.bin
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "snapshot artifacts differ across thread counts")
endif()

# Turn every inference line into a lookup query; answers must reproduce the
# run output exactly.
set(queries "")
set(expected "")
foreach(line IN LISTS inference_lines)
  if(line MATCHES "^#")
    continue()
  endif()
  string(REPLACE "|" ";" fields "${line}")
  list(GET fields 0 q_addr)
  list(GET fields 1 q_dir)
  string(APPEND queries "lookup ${q_addr} ${q_dir}\n")
  string(APPEND expected "${line}\n")
endforeach()
file(WRITE ${WORK_DIR}/queries.txt "${queries}")
execute_process(
  COMMAND ${MAPIT_BIN} query ${WORK_DIR}/snapshot.bin
  INPUT_FILE ${WORK_DIR}/queries.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "query failed (${rc}): ${err}")
endif()
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "query answers diverge from run output")
endif()

# The committed canned batch must get the committed golden answers byte for
# byte; its trailing `stats` answer embeds the artifact's CRC.
execute_process(
  COMMAND ${MAPIT_BIN} query ${WORK_DIR}/snapshot.bin
  INPUT_FILE ${GOLDEN_DIR}/golden_queries.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(READ ${GOLDEN_DIR}/golden_answers.txt golden)
if(NOT rc EQUAL 0 OR NOT out STREQUAL golden)
  message(FATAL_ERROR "golden query answers differ (${rc}): ${out}${err}")
endif()

# The same traces with CRLF line endings must give the same bytes.
file(READ ${WORK_DIR}/traces.txt lf_text)
string(REPLACE "\n" "\r\n" crlf_text "${lf_text}")
file(WRITE ${WORK_DIR}/traces_crlf.txt "${crlf_text}")
execute_process(
  COMMAND ${MAPIT_BIN} snapshot
    --traces ${WORK_DIR}/traces_crlf.txt
    --rib ${WORK_DIR}/rib.txt
    --relationships ${WORK_DIR}/relationships.txt
    --as2org ${WORK_DIR}/as2org.txt
    --ixps ${WORK_DIR}/ixps.txt
    --out ${WORK_DIR}/snapshot_crlf.bin
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "CRLF snapshot failed (${rc}): ${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/snapshot.bin ${WORK_DIR}/snapshot_crlf.bin
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "CRLF snapshot differs from the LF snapshot")
endif()

# stats must answer and name the artifact version.
file(WRITE ${WORK_DIR}/stats_query.txt "stats\n")
execute_process(
  COMMAND ${MAPIT_BIN} query ${WORK_DIR}/snapshot.bin
  INPUT_FILE ${WORK_DIR}/stats_query.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "version=1" OR NOT out MATCHES "crc32=")
  message(FATAL_ERROR "query stats failed (${rc}): ${out}")
endif()

# A truncated artifact must be rejected with a diagnostic, not crash.
file(SIZE ${WORK_DIR}/snapshot.bin snap_size)
math(EXPR trunc_size "${snap_size} - 7")
find_program(DD_TOOL dd)
if(DD_TOOL)
  execute_process(
    COMMAND ${DD_TOOL} if=${WORK_DIR}/snapshot.bin
            of=${WORK_DIR}/truncated.bin bs=1 count=${trunc_size}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  execute_process(
    COMMAND ${MAPIT_BIN} query ${WORK_DIR}/truncated.bin
    INPUT_FILE ${WORK_DIR}/stats_query.txt
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "truncated snapshot was accepted")
  endif()
  if(NOT err MATCHES "snapshot")
    message(FATAL_ERROR "truncated snapshot rejection lacks diagnostic: ${err}")
  endif()
endif()

message(STATUS "cli snapshot/query OK")

# Checkpoint/resume through the real binary: stop at every run boundary
# (one boundary per invocation via --stop-after 1, exit code 5), chain
# --resume until the run completes, and require the final inferences and
# uncertain set to be byte-identical to the uninterrupted run's output
# above. The chain runs 8 engine threads against that 1-thread reference.
set(ckpt_dir ${WORK_DIR}/ckpt)
set(input_flags
  --traces ${WORK_DIR}/traces.txt
  --rib ${WORK_DIR}/rib.txt
  --relationships ${WORK_DIR}/relationships.txt
  --as2org ${WORK_DIR}/as2org.txt
  --ixps ${WORK_DIR}/ixps.txt)
set(run_flags ${input_flags}
  --output ${WORK_DIR}/resumed_inferences.txt
  --uncertain ${WORK_DIR}/resumed_uncertain.txt
  --threads 8)

execute_process(
  COMMAND ${MAPIT_BIN} run ${run_flags}
          --checkpoint-dir ${ckpt_dir} --stop-after 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 5)
  message(FATAL_ERROR "--stop-after should exit 5, got ${rc}: ${err}")
endif()
if(NOT EXISTS ${ckpt_dir}/engine.ckpt)
  message(FATAL_ERROR "interrupted run left no checkpoint")
endif()
if(NOT err MATCHES "--resume")
  message(FATAL_ERROR "interrupted run did not say how to resume: ${err}")
endif()

set(resume_rc 5)
set(legs 0)
while(resume_rc EQUAL 5)
  math(EXPR legs "${legs} + 1")
  if(legs GREATER 50)
    message(FATAL_ERROR "resume chain did not terminate in 50 legs")
  endif()
  execute_process(
    COMMAND ${MAPIT_BIN} run ${run_flags}
            --resume ${ckpt_dir} --stop-after 1
    RESULT_VARIABLE resume_rc OUTPUT_QUIET ERROR_VARIABLE err)
endwhile()
if(NOT resume_rc EQUAL 0)
  message(FATAL_ERROR "resume leg failed (${resume_rc}): ${err}")
endif()
if(legs LESS 2)
  message(FATAL_ERROR "resume chain too short to prove anything (${legs})")
endif()
foreach(pair "inferences.txt;resumed_inferences.txt"
             "uncertain.txt;resumed_uncertain.txt")
  list(GET pair 0 want)
  list(GET pair 1 got)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/${want} ${WORK_DIR}/${got}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "kill/resume chain diverged from uninterrupted run "
            "(${got})")
  endif()
endforeach()
if(EXISTS ${ckpt_dir}/engine.ckpt)
  message(FATAL_ERROR "completed run did not remove its checkpoint")
endif()

# Deadline supervision: an already-expired budget must checkpoint and exit 5
# at the first boundary, leaving a checkpoint that a plain --resume (no
# budget) completes from with the reference bytes.
set(deadline_flags ${input_flags} --output ${WORK_DIR}/deadline_inferences.txt)
execute_process(
  COMMAND ${MAPIT_BIN} run ${deadline_flags}
          --checkpoint-dir ${WORK_DIR}/ckpt-deadline --deadline 0.000001
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 5)
  message(FATAL_ERROR "expired --deadline should exit 5, got ${rc}: ${err}")
endif()
execute_process(
  COMMAND ${MAPIT_BIN} run ${deadline_flags}
          --resume ${WORK_DIR}/ckpt-deadline
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume after the deadline failed (${rc}): ${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/inferences.txt ${WORK_DIR}/deadline_inferences.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "deadline checkpoint + resume diverged from "
          "uninterrupted run")
endif()

# A resume whose inputs changed must be rejected with exit code 4.
execute_process(
  COMMAND ${MAPIT_BIN} run ${run_flags}
          --checkpoint-dir ${ckpt_dir} --stop-after 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 5)
  message(FATAL_ERROR "checkpoint seeding for mismatch test failed (${rc})")
endif()
file(READ ${WORK_DIR}/traces.txt trace_text)
file(WRITE ${WORK_DIR}/traces_edited.txt "${trace_text}\n")
execute_process(
  COMMAND ${MAPIT_BIN} run
    --traces ${WORK_DIR}/traces_edited.txt
    --rib ${WORK_DIR}/rib.txt
    --relationships ${WORK_DIR}/relationships.txt
    --as2org ${WORK_DIR}/as2org.txt
    --ixps ${WORK_DIR}/ixps.txt
    --output ${WORK_DIR}/mismatch.txt
    --resume ${ckpt_dir}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR "fingerprint mismatch should exit 4, got ${rc}: ${err}")
endif()
if(NOT err MATCHES "corpus")
  message(FATAL_ERROR "mismatch diagnostic does not name the corpus: ${err}")
endif()

# Contradictory checkpoint flags are a usage error (exit 2).
execute_process(
  COMMAND ${MAPIT_BIN} run ${run_flags}
          --checkpoint-dir ${ckpt_dir} --resume ${ckpt_dir}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "conflicting checkpoint flags should exit 2, got ${rc}")
endif()
# ...and budget flags without a checkpoint directory are too.
execute_process(
  COMMAND ${MAPIT_BIN} run ${run_flags} --deadline 10
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--deadline without checkpointing should exit 2, "
          "got ${rc}")
endif()

message(STATUS "cli checkpoint/resume OK (${legs} resume legs)")

# `serve --async` is an accepted no-op: the flag still parses, so a missing
# snapshot fails as a load error (exit 3), not as a usage error (exit 2).
execute_process(
  COMMAND ${MAPIT_BIN} serve ${WORK_DIR}/no-such-snapshot.bin --async
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "serve --async should parse and fail to load (exit 3), "
          "got ${rc}: ${err}")
endif()
# Removed flags are unknown arguments (exit 2). Their names are assembled
# from two pieces so that a search of the tree for the removed names finds
# only the change history, not this check.
string(CONCAT removed_serve_flag "--send" "-timeout")
string(CONCAT removed_ingest_flag "--listen" "-plain")
execute_process(
  COMMAND ${MAPIT_BIN} serve ${WORK_DIR}/no-such-snapshot.bin
          ${removed_serve_flag} 5
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown argument: ${removed_serve_flag}")
  message(FATAL_ERROR "serve ${removed_serve_flag} should exit 2 as an "
          "unknown flag, got ${rc}: ${err}")
endif()
execute_process(
  COMMAND ${MAPIT_BIN} ingest
    --traces ${WORK_DIR}/traces.txt
    --rib ${WORK_DIR}/rib.txt
    --journal ${WORK_DIR}/removed-flag.jnl
    --out ${WORK_DIR}/removed-flag.snap
    --drain ${removed_ingest_flag} 0
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown argument: ${removed_ingest_flag}")
  message(FATAL_ERROR "ingest ${removed_ingest_flag} should exit 2 as an "
          "unknown flag, got ${rc}: ${err}")
endif()

message(STATUS "cli removed/no-op server flags OK")
