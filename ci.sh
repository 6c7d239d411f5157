#!/bin/sh
# The project's definition of green. Runs offline; no network access.
set -eux

cargo build --release
cargo test -q --workspace
# locality-repro's unit tests once more in release: the only run of them
# without debug assertions or overflow checks.
cargo test -q --release --offline -p locality-repro --lib
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings

# Line budget (ROADMAP item 5): the crates may not outgrow the committed
# ceiling, so growth is a reviewed edit of results/line_budget. Nor may
# they sit more than 25 lines under it: a PR that deletes code lowers the
# file too, so the slack is banked instead of left for the next PR.
lines=$(find crates -name '*.rs' | xargs cat | wc -l)
budget=$(cat results/line_budget)
if [ "$lines" -gt "$budget" ]; then
    echo "crates/ holds $lines lines of Rust, results/line_budget allows $budget" >&2
    exit 1
fi
if [ "$lines" -lt "$((budget - 25))" ]; then
    echo "crates/ holds $lines lines of Rust, more than 25 under results/line_budget ($budget):" \
        "lower the file to $lines to bank the deletion" >&2
    exit 1
fi

# Doc budget (ROADMAP item 10): results/doc_budget holds a byte ceiling
# per document, held both ways like the line budget. Over it fails; more
# than 2 KB under it fails too, until the PR that cut the text lowers it.
while read -r doc ceiling; do
    bytes=$(wc -c <"$doc")
    if [ "$bytes" -gt "$ceiling" ]; then
        echo "$doc holds $bytes bytes, results/doc_budget allows $ceiling" >&2
        exit 1
    fi
    if [ "$bytes" -lt "$((ceiling - 2048))" ]; then
        echo "$doc holds $bytes bytes, more than 2 KB under results/doc_budget" \
            "($ceiling): lower its ceiling to $bytes" >&2
        exit 1
    fi
done <results/doc_budget

# Unsafe code (DESIGN.md §10): the crates hold one block of it, the call
# into the SHA-extension compression in crates/repro/src/digest.rs made
# after run-time feature detection. locality-repro denies unsafe_code
# (with one #[allow]) and documents the block; every other crate forbids it.
unsafe_sites=$(grep -rnw --include='*.rs' unsafe crates || true)
case "$(printf '%s\n' "$unsafe_sites" | grep -c .) $unsafe_sites" in
'1 crates/repro/src/digest.rs:'*'return unsafe { shani::compress_blocks('*) ;;
*)
    echo "unsafe in crates/ other than the SHA dispatch in crates/repro/src/digest.rs:" >&2
    printf '%s\n' "$unsafe_sites" >&2
    exit 1
    ;;
esac
for lib in crates/*/src/lib.rs; do
    if [ "$lib" != crates/repro/src/lib.rs ] && ! grep -qx '#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "$lib lost #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

# SharingGraph::compact/is_compact are empty shells kept for the frozen
# benchmark alone (crates/core/src/graph.rs): nothing else may call them.
if grep -rnE --include='*.rs' '\.(is_)?compact\(\)' crates tests examples; then
    echo "SharingGraph::compact()/is_compact() may be called from benchmark/ only" >&2
    exit 1
fi

# The cache holds simulated runs only (DESIGN.md §10.2): the three kinds
# that were cheaper to compute than to load, the runner's mirror of
# PagePlacement and the explorer's process-global stay deleted.
if grep -rnE "EXPLORE_JOBS|TraceMetrics|TraceSummary\(|RunKind::UpdateCost|enum Placement" crates/; then
    echo "a RunKind is a simulated machine or engine run: see DESIGN.md §10.2" >&2
    exit 1
fi

# The benchmark (BENCHMARK.json) is a package of its own that reaches
# the crates only through their public items: hold it to the same gates,
# then run every workload for a second. Host numbers are ignored here
# (wall-clock stays out of CI); the run only has to be correct, so a
# crate API change that breaks the benchmark fails CI instead of the
# next measurement. The three simulated end-to-end values of each result
# line repeat to the last digit, whatever the run length, and reach what
# no golden CSV prints: mem_assoc pays 30 cycles for each of its 0.84 M
# TLB misses a pass, so a TLB that hits or evicts differently moves its
# sim_cycles_per_instr. They are held to results/benchmark_sim.golden.
SIM_GOLDEN="$PWD/results/benchmark_sim.golden"
COUNTS_GOLDEN="$PWD/results/benchmark_counts.golden"
run_benchmark() {
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seconds 1 --trace "$2" | tail -n 1
}
# hold_to_golden WORKLOAD RESULT_LINE GOLDEN METRIC...: each metric of the
# result line must equal, as text, the value the golden file holds for it.
hold_to_golden() {
    workload=$1 last=$2 golden=$3
    shift 3
    for metric in "$@"; do
        got=$(printf '%s\n' "$last" | sed -n "s/.*\"$metric\": {\"value\": \([^,]*\),.*/\1/p")
        want=$(sed -n "s/^$workload $metric //p" "$golden")
        if [ -z "$want" ] || [ "$got" != "$want" ]; then
            echo "benchmark workload $workload: $metric is '$got', $golden has '$want'" >&2
            exit 1
        fi
    done
}
cargo fmt --check --manifest-path benchmark/Cargo.toml
# clone_on_copy is allowed for one line of the frozen package:
# benchmark/src/layers.rs clones a PagePlacement, which is Copy since the
# runner's mirror of it went. The next [benchmark] PR drops the clone and
# this allowance (ROADMAP item 1c).
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings \
    -A clippy::clone_on_copy
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
for workload in repro_small policy_paper mem_direct mem_assoc sched_switch; do
    last=$(run_benchmark "$workload" 0)
    case "$last" in
    *'"correct": true, '*'"failed": 0, '*) ;;
    *)
        echo "benchmark workload $workload did not run correctly: $last" >&2
        exit 1
        ;;
    esac
    hold_to_golden "$workload" "$last" "$SIM_GOLDEN" \
        sim_cycles_per_instr sim_l2_mpki model_abs_rel_err
done
# The traced run prints the counts behind those ratios, and the work a
# context switch did: seed-deterministic too, whatever the run length, so
# a reference or switch path that starts doing something else fails here
# as a changed integer (results/benchmark_counts.golden). repro_small
# simulates nothing in its timed region and has no such counts.
for workload in policy_paper mem_direct mem_assoc sched_switch; do
    hold_to_golden "$workload" "$(run_benchmark "$workload" 1)" "$COUNTS_GOLDEN" \
        sim.refs sim.l1d_misses sim.l2_refs sim.l2_misses sim.l2_misses_remote \
        sim.invalidations sim.tlb_misses sim.page_faults sim.cycles sim.instructions \
        threads.context_switches threads.steals threads.threads_completed \
        threads.corrected_intervals core.flops_per_switch core.lookups_per_switch
done

# Smoke the full repro suite through the parallel cached runner, then
# hold every artifact to the committed golden hashes: the small-scale
# CSVs are byte-identical across machines, --jobs values, and the
# dense-slot refactors (results/golden_small.sha256). Runs are not timed
# out inside the runner, so the timeout bounds a hung descriptor here.
SMOKE_OUT=$(mktemp -d)
timeout 60 cargo run --release -p locality-repro --bin repro -- all \
    --scale small --jobs 2 --out "$SMOKE_OUT"
GOLDEN="$PWD/results/golden_small.sha256"
(cd "$SMOKE_OUT" && sha256sum -c "$GOLDEN")
rm -rf "$SMOKE_OUT"

# The same at paper scale (results/golden_paper.sha256, the hashes of the
# committed results/*.csv): photo's 2048 row threads, tsp's 977 and the
# full-length walks run nowhere else in CI, so a change to a workload or
# to the runner cannot move a number EXPERIMENTS.md quotes unseen. The
# timeout is the guard on what it costs: seconds, since the region table
# answers the annotations from a per-thread index (DESIGN.md §9.5).
PAPER_OUT=$(mktemp -d)
timeout 120 cargo run --release -p locality-repro --bin repro -- all \
    --scale paper --jobs 2 --out "$PAPER_OUT"
GOLDEN_PAPER="$PWD/results/golden_paper.sha256"
(cd "$PAPER_OUT" && sha256sum -c "$GOLDEN_PAPER")
rm -rf "$PAPER_OUT"

# Geometry validation: the model-vs-simulator sweep across L2
# geometries must run at small scale, and its CSV must be byte-identical
# across --jobs values (the runner's determinism contract extends to the
# new RunKind).
GEOM_A=$(mktemp -d)
GEOM_B=$(mktemp -d)
cargo run --release -p locality-repro --bin repro -- geometry \
    --scale small --jobs 1 --out "$GEOM_A"
cargo run --release -p locality-repro --bin repro -- geometry \
    --scale small --jobs 4 --out "$GEOM_B"
cmp "$GEOM_A/geometry.csv" "$GEOM_B/geometry.csv"
# Geometries no run can build (over the capacity cap, a line count that
# wraps, a one-line cache) are a usage error, not an abort or a panic.
# So is a page smaller than a cache line, which used to alias lines and,
# at one byte, to walk forever: hence the timeout. So are --fault and
# --chaos anywhere but `repro ablation`, which table1 used to ignore and
# `all` used to answer with a different artifact set.
for bad in "geometry --geometry 1099511627776x4" "geometry --geometry 4611686018427387904x4" \
    "geometry --geometry 1x1" "geometry --page-size 1" "geometry --page-size 32" \
    "table1 --fault bogus" "all --chaos churn"; do
    status=0
    # $bad is left unquoted: it is a subcommand, a flag and its value.
    timeout 20 cargo run --release -p locality-repro --bin repro -- $bad \
        --scale small --out "$GEOM_A" 2>/dev/null || status=$?
    if [ "$status" -ne 2 ]; then
        echo "repro $bad exited $status, not 2" >&2
        exit 1
    fi
done
rm -rf "$GEOM_A" "$GEOM_B"

# The robustness tables (repro ablation --fault/--chaos; they exist only
# when a flag asks for them): every counter-fault scenario must run
# through the sanitizer and the degraded mode, and every lifecycle-chaos
# scenario must complete under FCFS, LFF and CRT, to tables that are
# byte-identical across --jobs values and to results/golden_robustness.sha256
# at both scales.
ROBUST_GOLDEN="$PWD/results/golden_robustness.sha256"
for jobs in 1 4; do
    ROBUST_OUT=$(mktemp -d)
    for scale in small paper; do
        for table in --fault --chaos; do
            cargo run --release -p locality-repro --bin repro -- ablation \
                --scale "$scale" "$table" all --jobs "$jobs" --out "$ROBUST_OUT/$scale"
        done
    done
    (cd "$ROBUST_OUT" && sha256sum -c "$ROBUST_GOLDEN")
    rm -rf "$ROBUST_OUT"
done

# Crash safety: a `repro all` SIGKILLed mid-run must, on rerun, resume
# from the on-disk cache to artifacts byte-identical to an
# uninterrupted run (and to the committed golden hashes). The test is
# #[ignore]d in the default suite because it runs the full small suite
# three times; release mode keeps that under half a minute.
cargo test --release -p locality-repro --test kill_resume -- --ignored
# Stale cache: the same out dir read by a binary with a later build
# stamp (a re-dated copy of this one) must recompute every entry.
cargo test --release -p locality-repro --test runner a_later_build

# Analyzer: the clean fixture must pass, the racy fixture must be flagged
# (nonzero exit with a confirmed race).
ANALYZE_OUT=$(mktemp -d)
cargo run --release -p locality-repro --bin repro -- analyze \
    --scale small --workload clean --out "$ANALYZE_OUT"
if cargo run --release -p locality-repro --bin repro -- analyze \
    --scale small --workload racy --out "$ANALYZE_OUT"; then
    echo "analyze failed to flag the racy workload" >&2
    exit 1
fi
rm -rf "$ANALYZE_OUT"

# Model checker: the clean fixture must explore to quiescence with no
# violations, the racy and deadlock fixtures must each be flagged
# (nonzero exit with a counterexample on disk), and a written
# counterexample must round-trip through --replay to the same violation
# (replay reproducing a violation also exits nonzero).
MC_OUT=$(mktemp -d)
cargo run --release -p locality-repro --bin repro -- modelcheck \
    --workload clean --out "$MC_OUT"
if cargo run --release -p locality-repro --bin repro -- modelcheck \
    --workload racy --out "$MC_OUT"; then
    echo "modelcheck failed to flag the racy workload" >&2
    exit 1
fi
if cargo run --release -p locality-repro --bin repro -- modelcheck \
    --workload deadlock --out "$MC_OUT"; then
    echo "modelcheck failed to flag the deadlock workload" >&2
    exit 1
fi
test -s "$MC_OUT/counterexample_racy.txt"
test -s "$MC_OUT/counterexample_deadlock.txt"
if cargo run --release -p locality-repro --bin repro -- modelcheck \
    --replay "$MC_OUT/counterexample_deadlock.txt"; then
    echo "modelcheck replay failed to reproduce the deadlock" >&2
    exit 1
fi
# A counterexample asking for more worker rounds than the parser allows
# is malformed (exit 2), not a replay quadratic in the rounds: hence the
# timeout.
sed 's/^workload racy 1$/workload racy 4294967295/' "$MC_OUT/counterexample_racy.txt" \
    >"$MC_OUT/counterexample_rounds.txt"
status=0
timeout 20 cargo run --release -p locality-repro --bin repro -- modelcheck \
    --replay "$MC_OUT/counterexample_rounds.txt" 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
    echo "repro modelcheck --replay of racy 4294967295 exited $status, not 2" >&2
    exit 1
fi
rm -rf "$MC_OUT"

# Differential invariant checks: build the feature once and run it over
# the fig5 and fig7 monitored traces (a fresh out dir defeats the cache
# so the checked runs actually execute). Besides the scheduler's shadow
# recompute, the monitor hook of this build scans the E-cache at every
# sample and fails the run if the tracked footprint differs — all eight
# apps, typechecker and raytrace (the two the model gets wrong) included.
# Those cells never recycle a thread slot; fig9's merge and tsp cells
# spawn and exit threads while they run, so the shadow recompute there
# also sees estimator rows that were rebound to a younger thread.
INVARIANT_OUT=$(mktemp -d)
cargo clippy --workspace --all-targets --features invariant-checks -- -D warnings
cargo build --release -p locality-repro --features invariant-checks
for fig in fig5 fig7 fig9; do
    cargo run --release -p locality-repro --features invariant-checks --bin repro -- "$fig" \
        --scale small --jobs 2 --out "$INVARIANT_OUT"
done
rm -rf "$INVARIANT_OUT"

# The same tracked == scanned cross-check from outside the crates, at
# all 10 974 samples of the sixteen monitored cells. #[ignore]d in the
# default suite (two minutes unoptimised); seconds in release.
cargo test --release --test footprint_tracking -- --ignored
# The whole-machine reference (tests/ref_machine): every workload's trace
# replayed into RefMachine on the three E-cache geometries, clean and
# under every --chaos scenario. #[ignore]d in the default suite, which
# keeps two workloads of it; seconds in release.
cargo test --release --test run_equivalence -- --ignored
# The workloads' default-parameter checks, #[ignore]d in the default
# suite: barnes replays step 0's walks in later steps, and the replaying
# run must equal, in report, reference trace and checksum bits, one that
# recomputes every step; photo's 2048x2048 filter must equal its direct
# definition and its pinned checksum; tsp must evaluate its pinned tree,
# tours and best tour on one cpu and on eight. No CSV prints photo's
# pixels or tsp's tours.
cargo test --release -p locality-workloads --lib -- --ignored

# Observability layer (locality-trace): the workspace must stay green
# with the trace feature on (its tests pin the hot path's events per
# interval; the default build's prove the emission points compile out),
# and a small traced run must export cleanly.
cargo test -q --workspace --features trace
cargo clippy --workspace --all-targets --features trace -- -D warnings
TRACE_OUT=$(mktemp -d)
cargo run --release -p locality-repro --features trace --bin repro -- trace \
    --scale small --jobs 2 --out "$TRACE_OUT"
test -s "$TRACE_OUT/trace_merge.chrome.json"
test -s "$TRACE_OUT/trace_merge.jsonl"
test -s "$TRACE_OUT/trace_metrics.csv"
# Metrics and exports come from one run each; nothing of it is cached.
test ! -e "$TRACE_OUT/.cache"

# The outputs no figure hash covers: the analyzer's findings over both
# fixtures, the model checker's table and its three counterexamples, and
# the traced run above are held byte for byte to
# results/golden_analysis.sha256. Both drivers exit 1 on the racy,
# deadlock and lost-wakeup fixtures they are meant to flag, and print the
# same with or without the trace feature (this build saves a rebuild).
for run in "analyze --scale small --workload all" modelcheck; do
    status=0
    # $run is left unquoted: it is a subcommand and its flags.
    cargo run --release -p locality-repro --features trace --bin repro -- $run \
        --out "$TRACE_OUT" || status=$?
    if [ "$status" -ne 1 ]; then
        echo "repro $run exited $status, not 1" >&2
        exit 1
    fi
done
ANALYSIS_GOLDEN="$PWD/results/golden_analysis.sha256"
(cd "$TRACE_OUT" && sha256sum -c "$ANALYSIS_GOLDEN")
rm -rf "$TRACE_OUT"
