//! Integration tests for the experiment runner's two core guarantees:
//!
//! * **Determinism under parallelism** — CSV artifacts are byte-identical
//!   whether runs execute on one worker or many;
//! * **Caching** — a second invocation over the same output directory
//!   performs zero fresh runs and reproduces the same artifacts exactly.

use locality_repro::args::{Args, Scale};
use locality_repro::suite::{run_figures, Figure};
use std::path::{Path, PathBuf};

fn test_args(out: PathBuf, jobs: usize, no_cache: bool) -> Args {
    Args { scale: Scale::Small, out, jobs, no_cache, ..Args::default() }
}

fn tmp_out(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("locality-repro-test-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every CSV in `dir` (not recursing into `.cache`), sorted by name.
fn csv_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("output dir exists")
        .map(|e| e.expect("readable entry"))
        .filter(|e| e.file_name().to_string_lossy().ends_with(".csv"))
        .map(|e| {
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).expect("csv"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn parallel_csvs_are_byte_identical_to_serial() {
    let serial_out = tmp_out("serial");
    let parallel_out = tmp_out("parallel");
    run_figures(&test_args(serial_out.clone(), 1, true), &[Figure::Fig4])
        .expect("serial fig4 succeeds");
    run_figures(&test_args(parallel_out.clone(), 4, true), &[Figure::Fig4])
        .expect("parallel fig4 succeeds");

    let serial = csv_files(&serial_out);
    let parallel = csv_files(&parallel_out);
    assert_eq!(serial.len(), 5, "fig4 writes five panel CSVs");
    assert_eq!(
        serial.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        parallel.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
    );
    for ((name, serial_bytes), (_, parallel_bytes)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(serial_bytes, parallel_bytes, "{name} must not depend on --jobs");
    }
    let _ = std::fs::remove_dir_all(&serial_out);
    let _ = std::fs::remove_dir_all(&parallel_out);
}

#[test]
fn second_invocation_is_fully_cached() {
    let out = tmp_out("cached");
    let first = run_figures(&test_args(out.clone(), 2, false), &[Figure::Fig4])
        .expect("first fig4 succeeds");
    assert!(first.fresh_runs > 0, "first invocation must execute runs");
    assert_eq!(first.cached_runs, 0);
    let first_csvs = csv_files(&out);

    let second = run_figures(&test_args(out.clone(), 2, false), &[Figure::Fig4])
        .expect("second fig4 succeeds");
    assert_eq!(second.fresh_runs, 0, "second invocation must be served from cache");
    assert_eq!(second.cached_runs, first.fresh_runs);
    assert_eq!(first_csvs, csv_files(&out), "cached results reproduce artifacts exactly");

    // --no-cache ignores the populated cache.
    let third = run_figures(&test_args(out.clone(), 2, true), &[Figure::Fig4])
        .expect("no-cache fig4 succeeds");
    assert_eq!(third.cached_runs, 0);
    assert_eq!(third.fresh_runs, first.fresh_runs);
    let _ = std::fs::remove_dir_all(&out);
}

/// `repro fig4 --scale small` by `bin` into `out`: `(fresh, cached)` as
/// the runner's summary line reports them.
fn fig4_runs(bin: &Path, out: &Path) -> (usize, usize) {
    let output = std::process::Command::new(bin)
        .args(["fig4", "--scale", "small", "--jobs", "2", "--out"])
        .arg(out)
        .output()
        .expect("spawn repro fig4");
    assert!(output.status.success(), "repro fig4 exited with {}", output.status);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().find(|l| l.contains("runner — ")).expect("runner summary line");
    let count = |word: &str| {
        let before = line.split(word).next().expect("split yields a first piece");
        before.rsplit([' ', ',']).find(|t| !t.is_empty()).and_then(|n| n.parse().ok())
    };
    (count(" fresh").expect("fresh count"), count(" cached").expect("cached count"))
}

/// The stale-cache reproduction: a cache written by one build must not be
/// served by a later one. All a binary observes of its build is its own
/// file's length and modification time, so the same bytes under a later
/// mtime stand in for the rebuild.
#[test]
fn a_later_build_is_not_served_an_earlier_builds_cache() {
    let bin = Path::new(env!("CARGO_BIN_EXE_repro"));
    let out = tmp_out("rebuilt");
    std::fs::create_dir_all(&out).expect("mkdir out");
    let rebuilt = out.join("repro-rebuilt");
    std::fs::copy(bin, &rebuilt).expect("copy repro");
    let built = std::fs::metadata(bin).and_then(|m| m.modified()).expect("mtime of repro");
    std::fs::File::options()
        .write(true)
        .open(&rebuilt)
        .and_then(|f| f.set_modified(built + std::time::Duration::from_secs(1)))
        .expect("date the copy a second later");

    let (fresh, cached) = fig4_runs(bin, &out);
    assert!(fresh > 0 && cached == 0, "first build: {fresh} fresh, {cached} cached");
    assert_eq!(fig4_runs(bin, &out), (0, fresh), "the same build reads its own entries");
    assert_eq!(fig4_runs(&rebuilt, &out), (fresh, 0), "a later build must recompute them all");
    assert_eq!(fig4_runs(&rebuilt, &out), (0, fresh), "and then reads its own");
    let _ = std::fs::remove_dir_all(&out);
}
