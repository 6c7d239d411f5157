//! End-to-end tests of `repro modelcheck`: exit codes, usage errors
//! (`--help` is covered once for every subcommand in `analyze.rs`),
//! counterexample round-trips through `--replay`, and CSV
//! determinism across reruns and `--jobs` values.

mod common;

use common::TempOut;
use std::process::{Command, Output};

/// `repro modelcheck <args>`.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("modelcheck")
        .args(args)
        .output()
        .expect("spawn repro modelcheck")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn bad_flags_exit_two_with_usage_on_stderr() {
    let unknown = run(&["--bogus"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("usage:"));

    let bad_workload = run(&["--workload", "bogus"]);
    assert_eq!(bad_workload.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_workload.stderr).contains("unknown workload"));

    let bad_bound = run(&["--depth-bound", "0"]);
    assert_eq!(bad_bound.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_bound.stderr).contains("positive integer"));
}

#[test]
fn clean_workload_explores_exhaustively_and_exits_zero() {
    let out_dir = TempOut::new("modelcheck", "clean");
    let out = run(&["--workload", "clean", "--out", out_dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("(exhaustive;"), "{text}");
    assert!(text.contains("0 violation(s) -> ok"), "{text}");
    assert!(out_dir.join("modelcheck.csv").is_file());
    assert!(!out_dir.join("counterexample_clean.txt").exists());
}

#[test]
fn a_bounded_exploration_that_finds_nothing_is_incomplete_not_ok() {
    // At depth 1 the racy fixture's race is never reached: no violation,
    // and no proof either. Exit 0, but the line says why it is no proof.
    for (workload, bound, cause) in [
        ("racy", "--depth-bound", "1 execution(s) cut by --depth-bound"),
        ("clean", "--max-schedules", "capped by --max-schedules"),
    ] {
        let out_dir = TempOut::new("modelcheck", &format!("bound-{workload}"));
        let out = run(&["--workload", workload, bound, "1", "--out", out_dir.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout(&out));
        let text = stdout(&out);
        assert!(text.contains("(not exhaustive;"), "{text}");
        assert!(text.contains(&format!("0 violation(s) -> incomplete: {cause}")), "{text}");
        assert!(!text.contains("-> ok"), "{text}");
    }
}

#[test]
fn racy_workload_is_flagged_and_exits_one() {
    let out_dir = TempOut::new("modelcheck", "racy");
    let out = run(&["--workload", "racy", "--out", out_dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("counterexample_racy.txt"), "{text}");
    let ce = std::fs::read_to_string(out_dir.join("counterexample_racy.txt"))
        .expect("counterexample written");
    assert!(ce.contains("violation race"), "{ce}");
    // A bound that cut the search fails on what it found, but does not
    // claim to have seen every schedule.
    let out =
        run(&["--workload", "racy", "--preempt-bound", "0", "--out", out_dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("(not exhaustive;") && text.contains("-> FAIL"), "{text}");
}

#[test]
fn deadlock_counterexample_round_trips_through_replay() {
    for (workload, kind) in [("deadlock", "deadlock"), ("lostwake", "condvar-stall")] {
        let out_dir = TempOut::new("modelcheck", &format!("replay-{workload}"));
        let out = run(&["--workload", workload, "--out", out_dir.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));

        let ce_path = out_dir.join(format!("counterexample_{workload}.txt"));
        assert!(ce_path.is_file(), "counterexample not written");
        let replay = run(&["--replay", ce_path.to_str().unwrap()]);
        assert_eq!(replay.status.code(), Some(1), "stdout: {}", stdout(&replay));
        let text = stdout(&replay);
        assert!(text.contains(&format!("replayed {kind} on workload {workload}")), "{text}");
        assert!(text.contains("violation reproduced"), "{text}");

        // A schedule naming a thread that never exists does not
        // reproduce: still exit 1, and the error says so.
        let ce = std::fs::read_to_string(&ce_path).expect("read counterexample");
        let schedule = ce.lines().find(|l| l.starts_with("schedule ")).expect("schedule line");
        let diverging = out_dir.join("diverging.txt");
        std::fs::write(&diverging, ce.replace(schedule, "schedule 9")).expect("write copy");
        assert_replay_diverges(&diverging);
    }
    // A racy counterexample written when every yield was a decision of
    // its own names a thread per batch, not per step: it fails loudly.
    let stale_dir = TempOut::new("modelcheck", "replay-stale");
    let stale = stale_dir.join("counterexample_racy.txt");
    let text = "locality-modelcheck counterexample v1\nworkload racy 1\nviolation race\n\
                schedule 1,2,2,1,3,3,1\ndetail t2 write of [0x10000, 0x13000) @ {t1:2, t2:1} \
                is concurrent with t3 write of [0x10000, 0x12000) @ {t1:3, t3:1}\n";
    std::fs::write(&stale, text).expect("write stale counterexample");
    assert_replay_diverges(&stale);
}

/// Replays `path`, whose schedule names a thread that is not enabled:
/// exit 1, no reproduction claimed, and stderr says why.
fn assert_replay_diverges(path: &std::path::Path) {
    let replay = run(&["--replay", path.to_str().unwrap()]);
    assert_eq!(replay.status.code(), Some(1), "stdout: {}", stdout(&replay));
    assert!(!stdout(&replay).contains("violation reproduced"), "{}", stdout(&replay));
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert!(stderr.contains("did not reproduce its violation"), "{stderr}");
    assert!(stderr.contains("schedule diverged"), "{stderr}");
}

#[test]
fn missing_replay_file_is_named_and_exits_two() {
    let dir = TempOut::new("modelcheck", "missing");
    let missing = dir.join("no-such-counterexample.txt");
    let out = run(&["--replay", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read counterexample"), "{stderr}");
    assert!(stderr.contains(missing.to_str().unwrap()), "{stderr}");
}

#[test]
fn malformed_replay_file_exits_two() {
    let out_dir = TempOut::new("modelcheck", "malformed");
    let bad = out_dir.join("bogus.txt");
    std::fs::write(&bad, "not a counterexample\n").expect("write junk");
    let out = run(&["--replay", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("malformed counterexample"));
}

#[test]
fn verdict_and_csv_stable_across_jobs_and_reruns() {
    let mut csvs = Vec::new();
    for (i, jobs) in ["1", "2", "4", "1"].iter().enumerate() {
        let out_dir = TempOut::new("modelcheck", &format!("determinism-{i}"));
        let out = run(&["--jobs", jobs, "--out", out_dir.to_str().unwrap()]);
        // All workloads run; the violating fixtures drive the nonzero exit.
        assert_eq!(out.status.code(), Some(1), "jobs={jobs}");
        csvs.push(std::fs::read_to_string(out_dir.join("modelcheck.csv")).expect("csv written"));
    }
    assert!(csvs.windows(2).all(|w| w[0] == w[1]), "modelcheck.csv varies across jobs/reruns");
}
