#!/usr/bin/env bash
# CI entry point.  Stages:
#   release   Release build with -Werror, full test suite (latch checker
#             compiled out)
#   debug     Debug build with -Werror, full suite with the latch-rank
#             checker ON
#   tsan      ThreadSanitizer build, concurrency suites (checker ON via AUTO)
#   asan      AddressSanitizer build, full suite + smoke benchmark
#   ubsan     UndefinedBehaviorSanitizer build, full suite
#   recovery  crash/restart durability suite + WAL smoke bench (§12)
#   metrics   metrics-exposition round-trip over the smoke bench output
#   lint      orion_lint + orion_check self-tests, source tree scans, and
#             a seeded-violation proof that the stage fails on regressions
#             (DESIGN.md §9.2, §9.4)
#   tidy      clang-tidy over compile_commands.json (FAILS with exit 3 if
#             the tool is not installed when requested explicitly; the
#             pinned check set lives in .clang-tidy)
# Usage: ./ci.sh            (all stages)
#        ./ci.sh <stage>    (one stage)
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-all}"
jobs="$(nproc)"

if [[ "$stage" == "all" || "$stage" == "release" ]]; then
  echo "=== stage 1: Release build, full test suite ==="
  # The Release build is warning-free, and -Werror keeps it that way.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build-release -j "$jobs"
  ctest --test-dir build-release --output-on-failure -j "$jobs"
fi

if [[ "$stage" == "all" || "$stage" == "debug" ]]; then
  echo "=== stage 2: Debug build, full suite under the latch-rank checker ==="
  # ORION_LATCH_CHECK resolves ON for Debug: every latch acquisition in the
  # whole suite is checked against the DESIGN.md §9 rank order and the
  # global lock-order graph; one inversion anywhere aborts the test.
  # Warning-free like Release, and -Werror keeps it that way.
  cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build-debug -j "$jobs"
  ctest --test-dir build-debug --output-on-failure -j "$jobs"
fi

if [[ "$stage" == "all" || "$stage" == "tsan" ]]; then
  echo "=== stage 3: ThreadSanitizer build, concurrency suites ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DORION_SANITIZE=thread
  cmake --build build-tsan -j "$jobs"
  # TSan halts the process on the first report, so a pass here means zero
  # data races in everything these suites execute.  Mvcc covers the
  # lock-free read path; Snapshot covers SaveSnapshot-as-read-transaction;
  # DdlConcurrency covers the §10 DDL-storm-vs-DML-hammer protocol; Cell
  # and Rpc cover the shared retry loop on both session kinds and the
  # server's per-connection sessions.
  # The latch checker is also ON here (AUTO under sanitizers), so these
  # suites double as a multi-threaded rank-order torture test.
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
          -R 'Concurrency|ThreadSafeLogicalClock|ShardedTables|LockManager|Transaction|CompositeLocking|LockStress|Mvcc|Snapshot|Observability|LatchCheck|DdlConcurrency|Cell|Rpc'
fi

if [[ "$stage" == "all" || "$stage" == "asan" ]]; then
  echo "=== stage 4: AddressSanitizer build, full suite + smoke bench ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DORION_SANITIZE=address
  cmake --build build-asan -j "$jobs"
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
  # The epoch reclaimer, record-chain trim, and versioned index vacuum all
  # free memory concurrently with readers; a ~1k-op contended bench pass
  # under ASan exercises exactly those frees.
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    ./bench/abl_concurrency --smoke)
  # The §10 fence path frees schema versions and swept instance state while
  # DML sessions and pinned readers are live; the online-DDL smoke covers
  # those frees too.
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    ./bench/abl_online_ddl --smoke)
  # The §11 cell layer adds cross-cell 2PC (per-cell journals freed on both
  # commit paths) and queries that pin one read transaction per cell while
  # the per-cell reclaimers free trimmed records; its smoke exercises both.
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    ./bench/abl_cells --smoke)
  # The §12 WAL moves record payloads from the commit path into the flush
  # leader's batch and frees them after the fsync; its smoke covers that
  # handoff plus snapshot write/read and a cold replay.
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    ./bench/abl_wal --smoke)
  # The §14 RPC front-end owns socket + thread lifecycles (accept loop,
  # per-connection threads with their own sessions and interpreters,
  # Stop() join) and the coalescing read/write buffers on both halves of
  # the wire; its smoke drives all of those plus the shed/retry path
  # under ASan.
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    ./bench/abl_rpc --smoke)
fi

if [[ "$stage" == "all" || "$stage" == "ubsan" ]]; then
  echo "=== stage 5: UndefinedBehaviorSanitizer build, full suite ==="
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DORION_SANITIZE=undefined
  cmake --build build-ubsan -j "$jobs"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir build-ubsan --output-on-failure -j "$jobs"
fi

if [[ "$stage" == "all" || "$stage" == "recovery" ]]; then
  echo "=== stage 6: durability and recovery (§12) ==="
  # The fault-injection crash tests SIGKILL child processes at every crash
  # point in the commit/2PC/checkpoint paths, then recover from snapshot +
  # changelog and check the survivor against the pre-crash committed state.
  # The WAL smoke bench then exercises the enqueue/fsync group-commit
  # handoff under 64 threads plus a cold snapshot+replay, so the flush
  # leader's condvar choreography gets a concurrency workout here even when
  # the sanitizer stages are skipped.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" --target recovery_test abl_wal
  ctest --test-dir build-release --output-on-failure -R 'Recovery'
  (cd build-release && ./bench/abl_wal --smoke > /dev/null)
fi

if [[ "$stage" == "all" || "$stage" == "metrics" ]]; then
  echo "=== stage 7: metrics exposition round-trip ==="
  # The smoke bench exports the engine's metrics snapshot in Prometheus and
  # JSON form; metrics_check parses both independently (its own parsers, no
  # shared code with the exporters) and cross-validates the values.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" \
        --target abl_concurrency abl_cells abl_rpc metrics_check orion_trace
  (cd build-release && ./bench/abl_concurrency --smoke > /dev/null &&
    ./tools/metrics_check BENCH_concurrency_metrics.prom \
                          BENCH_concurrency_metrics.json \
                          BENCH_concurrency.json &&
    ./tools/orion_trace BENCH_concurrency_trace.json > /dev/null)
  # The §13 facade: abl_cells exports each cell's registry, the cluster's
  # own, and the merged Cluster::Stats() snapshot; --cluster proves the
  # merge reconciles (counters/histograms sum, gauges labeled per cell, no
  # family double-counted or lost).  The cluster trace export must also be
  # a forest of connected trees.
  (cd build-release && ./bench/abl_cells --smoke > /dev/null &&
    ./tools/metrics_check --cluster BENCH_cells_cluster.prom \
                          BENCH_cells_cluster.json \
                          BENCH_cells_own.json \
                          BENCH_cells_cell1.json BENCH_cells_cell2.json &&
    ./tools/orion_trace BENCH_cells_trace.json > /dev/null)
  # The §14 RPC facade: abl_rpc exports the same per-cell / own / merged
  # snapshot set after the server has STOPPED, so --cluster additionally
  # proves the rpc.* family reconciles (requests == served + shed) and
  # that the in-flight and connection gauges drained to zero (§14.7).
  # Its trace export carries remote-parented "rpc.server" roots (§14.6);
  # orion_trace must treat those as roots, not dangling spans.
  (cd build-release && ./bench/abl_rpc --smoke > /dev/null &&
    ./tools/metrics_check --cluster BENCH_rpc_cluster.prom \
                          BENCH_rpc_cluster.json \
                          BENCH_rpc_own.json \
                          BENCH_rpc_cell1.json BENCH_rpc_cell2.json &&
    ./tools/orion_trace BENCH_rpc_trace.json > /dev/null)
fi

if [[ "$stage" == "all" || "$stage" == "lint" ]]; then
  echo "=== stage 8: orion_lint + orion_check (source-level invariants) ==="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" --target orion_lint orion_check
  ./build-release/tools/orion_lint --self-test
  ./build-release/tools/orion_lint .
  # Whole-program latch-discipline analysis: rank completeness, static
  # nesting order, §9.1 rank-table drift (DESIGN.md §9.4).
  ./build-release/tools/orion_check --self-test
  ./build-release/tools/orion_check .
  # Seeded-violation proof: the stage must actually FAIL on a regression,
  # not just run.  A scratch tree with one unranked latch must exit
  # nonzero and name the rule.
  seeded="$(mktemp -d)"
  mkdir -p "$seeded/src/common" "$seeded/src/core"
  cp src/common/latch.h src/common/latch.cc "$seeded/src/common/"
  cp DESIGN.md "$seeded/"
  printf 'class Seeded { Latch bad_; };\n' > "$seeded/src/core/seeded.h"
  if ./build-release/tools/orion_check "$seeded" 2> "$seeded/out.txt"; then
    echo "ci.sh: orion_check FAILED to flag the seeded unranked latch" >&2
    cat "$seeded/out.txt" >&2
    rm -rf "$seeded"
    exit 1
  fi
  if ! grep -q 'unranked-latch' "$seeded/out.txt"; then
    echo "ci.sh: orion_check flagged the seeded tree for the wrong rule" >&2
    cat "$seeded/out.txt" >&2
    rm -rf "$seeded"
    exit 1
  fi
  rm -rf "$seeded"
  echo "orion_check: seeded-violation proof passed (unranked-latch fired)."
fi

if [[ "$stage" == "all" || "$stage" == "tidy" ]]; then
  echo "=== stage 9: clang-tidy over compile_commands.json ==="
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    # compile_commands.json is exported unconditionally (CMakeLists.txt);
    # the check set and exclusions are pinned in .clang-tidy.
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p build-release -quiet "src/.*\.cc$"
    else
      find src -name '*.cc' -print0 |
        xargs -0 -P "$jobs" -n 1 clang-tidy -p build-release --quiet
    fi
  else
    # Not a silent skip: an explicit `./ci.sh tidy` in an environment
    # without LLVM is a FAILED stage with its own exit code, so automation
    # cannot mistake "never ran" for "ran clean".  Under `all` the stage
    # degrades to a loud warning so lint-only containers still get a green
    # run from the stages they can execute (README documents this debt).
    echo "ci.sh: TIDY STAGE NOT RUN — clang-tidy is not installed." >&2
    echo "In an LLVM-equipped environment, run exactly:" >&2
    echo "  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release" >&2
    echo "  run-clang-tidy -p build-release -quiet 'src/.*\\.cc$'" >&2
    echo "or, without run-clang-tidy:" >&2
    echo "  find src -name '*.cc' -print0 | xargs -0 -P \"\$(nproc)\" -n 1 \\" >&2
    echo "    clang-tidy -p build-release --quiet" >&2
    echo "(check set and exclusions are pinned in .clang-tidy)" >&2
    if [[ "$stage" == "tidy" ]]; then
      exit 3
    fi
    echo "ci.sh: continuing remaining stages (stage was 'all')." >&2
  fi
fi

echo "ci.sh: all requested stages passed."
