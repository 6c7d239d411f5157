#!/bin/sh
# The project's definition of green. Runs offline; no network access.
# Bare `cargo test -q` runs every test of every workspace member, the
# small-scale goldens among them, in a debug build. Each step here is not
# a test (fmt, clippy, the budgets and greps) or needs what that run does
# not have: a release build, the paper scale, another --jobs value, or
# the benchmark package.
set -eux

# The whole suite once more in release, the #[ignore]d tests with it:
# the only run without debug assertions or overflow checks, and the one
# that reaches the tests that take minutes unoptimised.
cargo test -q --release --workspace -- --include-ignored
# The examples assert what they print (photo_pipeline: all four policies
# produce the same checksummed image) and no test runs them: ~1.3 s.
for example in quickstart mergesort_locality photo_pipeline model_explorer; do
    cargo run -q --release --example "$example"
done
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc warns, and builds, on a link into a deleted or private item;
# here that fails.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Line budget: the crates may not outgrow the ceiling committed in
# results/line_budget, so growth is a reviewed edit of that file. Nor may
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

# Doc budget: results/doc_budget holds a byte ceiling per document, held
# both ways like the line budget. Over it fails; more than 2 KB under it
# fails too, until the PR that cut the text lowers it.
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

# Doc cross-references: a cut or renumbered DESIGN.md section, or a moved
# file, must not leave a pointer to nothing. Every "DESIGN.md §N.M"
# (also "DESIGN §N", "§N of DESIGN.md") in the crates, tests, examples,
# this script, README.md or EXPERIMENTS.md names a DESIGN.md heading, and
# every backticked repo path in the three documents exists.
design_sections=$(sed -n -e 's/^## \([0-9][0-9]*\)\. .*/\1/p' \
    -e 's/^### \([0-9][0-9]*\.[0-9][0-9]*\) .*/\1/p' DESIGN.md)
cited_sections=$(grep -rlE 'DESIGN' crates tests examples ci.sh README.md EXPERIMENTS.md |
    while read -r f; do
        # Comment markers dropped and lines joined, so a citation that
        # wraps still reads as one.
        sed -e 's|^[[:space:]]*//[/!]*[[:space:]]*||' -e 's|^[[:space:]]*#[[:space:]]*||' "$f" |
            tr '\n' ' '
        echo
    done | grep -oE 'DESIGN(\.md)? §[0-9]+(\.[0-9]+)?|§[0-9]+(\.[0-9]+)? of DESIGN' |
    grep -oE '[0-9]+(\.[0-9]+)?' | sort -u)
for section in $cited_sections; do
    if ! printf '%s\n' "$design_sections" | grep -qxF "$section"; then
        echo "DESIGN.md §$section is cited but DESIGN.md has no such heading:" >&2
        grep -rnE "DESIGN(\.md)? §$section|§$section of" crates tests examples ci.sh \
            README.md EXPERIMENTS.md >&2 || true
        exit 1
    fi
done
for doc in DESIGN.md README.md EXPERIMENTS.md; do
    # Unquoted on purpose: a glob such as results/*.csv must match a file.
    for path in $(grep -oE '`(crates|tests|results|examples|benchmark|vendor)/[^` ]*`' "$doc" |
        tr -d '`'); do
        if [ ! -e "$path" ]; then
            echo "$doc names \`$path\`, which does not exist" >&2
            exit 1
        fi
    done
done

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
# PagePlacement and the explorer's process-global stay deleted, and so
# does the second walk descriptor, whose entries cached the model's
# predictions beside the observation.
if grep -rnE "EXPLORE_JOBS|TraceMetrics|TraceSummary\(|RunKind::UpdateCost|enum Placement|\
RunKind::Geometry|GeometryPoints|GeometryExperiment" crates/; then
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
# runner's mirror of it went. The next change to benchmark/ drops the
# clone and this allowance.
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

# Every artifact at paper scale, held to results/golden_paper.sha256,
# the hashes of the committed results/*.csv: photo's 2048 row threads,
# tsp's 977 and the full-length walks run nowhere else, so a change to a
# workload or to the runner cannot move a number EXPERIMENTS.md quotes
# unseen. Runs are not timed out inside the runner, so the timeout bounds
# a hung descriptor here, and what it costs: seconds, since the region
# table answers the annotations from per-thread range lists and builds its
# address index only for the cells that scan footprints (DESIGN.md §9.5).
PAPER_OUT=$(mktemp -d)
timeout 120 cargo run --release -p locality-repro --bin repro -- all \
    --scale paper --jobs 2 --out "$PAPER_OUT"
GOLDEN_PAPER="$PWD/results/golden_paper.sha256"
(cd "$PAPER_OUT" && sha256sum -c "$GOLDEN_PAPER")
rm -rf "$PAPER_OUT"

# The analysis outputs of the release binary, held to
# results/golden_analysis.sha256: the findings table, the model checker's
# table and counterexamples, and the small traced run. The test suite
# checks the same nine rows in process, in a debug build only. analyze
# and modelcheck exit 1, since the fixtures violate by design.
ANALYSIS_OUT=$(mktemp -d)
# repro_exits STATUS ARGS...: runs the release repro, which must exit STATUS.
repro_exits() {
    want=$1 status=0
    shift
    cargo run -q --release -p locality-repro --bin repro -- "$@" >/dev/null || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "repro $* exited $status, expected $want" >&2
        exit 1
    fi
}
repro_exits 1 analyze --scale small --workload all --out "$ANALYSIS_OUT"
repro_exits 1 modelcheck --out "$ANALYSIS_OUT"
repro_exits 0 trace --scale small --out "$ANALYSIS_OUT"
GOLDEN_ANALYSIS="$PWD/results/golden_analysis.sha256"
(cd "$ANALYSIS_OUT" && sha256sum -c "$GOLDEN_ANALYSIS")
rm -rf "$ANALYSIS_OUT"

# Geometry validation: the model-vs-simulator sweep across L2
# geometries (not part of `repro all`) must write the same geometry.csv,
# results/golden_geometry.sha256, at every --jobs value.
GEOMETRY_GOLDEN="$PWD/results/golden_geometry.sha256"
for jobs in 1 4; do
    GEOMETRY_OUT=$(mktemp -d)
    cargo run --release -p locality-repro --bin repro -- geometry \
        --scale small --jobs "$jobs" --out "$GEOMETRY_OUT"
    (cd "$GEOMETRY_OUT" && sha256sum -c "$GEOMETRY_GOLDEN")
    rm -rf "$GEOMETRY_OUT"
done

# The robustness tables at paper scale (repro robustness; not part of
# `repro all`): every counter-fault scenario must run through the
# sanitizer and the degraded mode, and every lifecycle-chaos scenario
# must complete under FCFS, LFF and CRT, to the paper/ rows of
# results/golden_robustness.sha256 at every --jobs value.
ROBUST_GOLDEN="$PWD/results/golden_robustness.sha256"
for jobs in 1 4; do
    ROBUST_OUT=$(mktemp -d)
    cargo run --release -p locality-repro --bin repro -- robustness \
        --scale paper --jobs "$jobs" --out "$ROBUST_OUT/paper"
    (cd "$ROBUST_OUT" && grep '  paper/' "$ROBUST_GOLDEN" | sha256sum -c)
    rm -rf "$ROBUST_OUT"
done
