//! Crash-safety gate for the experiment pipeline: a `repro all` process
//! killed mid-run must, on rerun into the same output directory, resume
//! from the on-disk result cache and finish with artifacts that are
//! byte-identical to an uninterrupted run. This is the end-to-end check
//! behind the atomic cache writes (temp-file + rename + checksum) and
//! atomic CSV writes — a SIGKILL at any point leaves either a complete,
//! verifiable entry or nothing, never a torn file the resume trusts.
//!
//! The test runs the real binary three times (reference, killed, resume),
//! which takes minutes in a debug build, so it is `#[ignore]`d here and
//! runs in `ci.sh`'s release suite, which includes the ignored tests.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_repro");

/// Runs `repro all --scale small` to completion into `out`.
fn run_to_completion(out: &Path) {
    let status = Command::new(BIN)
        .args(["all", "--scale", "small", "--jobs", "2", "--out"])
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .expect("spawn repro all");
    assert!(status.success(), "repro all exited with {status}");
}

/// Starts `repro all`, waits until the cache shows committed progress
/// (so the kill lands mid-run, after real work), then SIGKILLs it.
/// Returns how many cache entries had landed when the axe fell.
fn run_and_kill(out: &Path) -> usize {
    let mut child = Command::new(BIN)
        .args(["all", "--scale", "small", "--jobs", "2", "--out"])
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn repro all");
    let cache = out.join(".cache");
    let deadline = Instant::now() + Duration::from_secs(300);
    let committed = loop {
        if let Some(status) = child.try_wait().expect("poll repro all") {
            // The run outpaced the poll; that still exercises the
            // resume path (everything served from cache), but flag it
            // so a suspiciously fast binary is noticed.
            eprintln!("[kill_resume] run finished before the kill ({status})");
            break cache_entries(&cache);
        }
        let n = cache_entries(&cache);
        if n >= 5 {
            child.kill().expect("SIGKILL repro all");
            child.wait().expect("reap repro all");
            break n;
        }
        assert!(Instant::now() < deadline, "no cache progress within 300s");
        std::thread::sleep(Duration::from_millis(20));
    };
    committed
}

fn cache_entries(cache: &Path) -> usize {
    std::fs::read_dir(cache)
        .map(|rd| rd.flatten().filter(|e| e.path().extension().is_some_and(|x| x == "run")).count())
        .unwrap_or(0)
}

/// Collects `name -> sha256` for every artifact (CSV and text report)
/// in `out`, ignoring the cache directory.
fn artifact_digests(out: &Path) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for entry in std::fs::read_dir(out).expect("read out dir").flatten() {
        let path = entry.path();
        let is_artifact = path.extension().is_some_and(|x| x == "csv" || x == "txt");
        if !is_artifact {
            continue;
        }
        let bytes = std::fs::read(&path).expect("read artifact");
        let name = entry.file_name().to_string_lossy().into_owned();
        map.insert(name, locality_repro::digest::hex(&bytes));
    }
    map
}

#[test]
#[ignore = "runs the full small suite three times; exercised in release mode by ci.sh"]
fn killed_run_resumes_to_byte_identical_artifacts() {
    let scratch = std::env::temp_dir().join(format!("locality-kill-resume-{}", std::process::id()));
    let reference = scratch.join("reference");
    let resumed = scratch.join("resumed");
    std::fs::create_dir_all(&reference).expect("mkdir reference");
    std::fs::create_dir_all(&resumed).expect("mkdir resumed");

    run_to_completion(&reference);
    let want = artifact_digests(&reference);
    assert!(!want.is_empty(), "reference run produced no artifacts");

    let committed = run_and_kill(&resumed);
    eprintln!("[kill_resume] killed with {committed} cache entries committed");
    run_to_completion(&resumed);
    let got = artifact_digests(&resumed);

    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "resumed run produced a different artifact set"
    );
    for (name, digest) in &want {
        assert_eq!(
            digest, &got[name],
            "{name} diverged between the clean and the killed-then-resumed run"
        );
    }

    // The committed golden hashes must agree with what this build
    // produces, or the determinism contract has drifted.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden_small.sha256");
    let golden = std::fs::read_to_string(&golden).expect("results/golden_small.sha256 missing");
    let mut checked = 0;
    for line in golden.lines().filter(|l| !l.trim().is_empty()) {
        let (hash, name) = line.split_once("  ").expect("golden line must be `<sha256>  <file>`");
        assert_eq!(
            want.get(name).map(String::as_str),
            Some(hash),
            "{name} does not match results/golden_small.sha256"
        );
        checked += 1;
    }
    assert!(checked > 0, "golden file is empty");

    std::fs::remove_dir_all(&scratch).expect("clean scratch");
}
