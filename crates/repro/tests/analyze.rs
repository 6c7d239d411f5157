//! End-to-end tests of the `repro` dispatcher and its `analyze`
//! subcommand: exit codes, help/usage behaviour, and verdict determinism
//! across reruns and `--jobs` values.

mod common;

use common::TempOut;
use std::process::{Command, Output};

/// `repro <args>`.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

/// `repro analyze <args>`.
fn run(args: &[&str]) -> Output {
    repro(&[&["analyze"], args].concat())
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["analyze", "--help"],
        &["analyze", "-h"],
        &["modelcheck", "--help"],
        &["fig5", "--help"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(stdout(&out).contains("usage: repro <subcommand>"), "{args:?}: {}", stdout(&out));
        // The help lists the name table.
        assert!(stdout(&out).contains("\n  modelcheck "), "{args:?}: {}", stdout(&out));
        assert!(out.stderr.is_empty(), "{args:?} wrote to stderr");
    }
}

#[test]
fn missing_or_unknown_subcommand_exits_two_naming_the_valid_ones() {
    for (args, reason) in [
        (&[][..], "missing subcommand"),
        (&["bogus"], "unknown subcommand 'bogus'"),
        (&["--scale", "small"], "unknown subcommand '--scale'"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with(reason), "{args:?}: {err}");
        for name in ["table1", "fig9", "ablation", "geometry", "all", "analyze", "trace"] {
            assert!(err.contains(&format!("\n  {name} ")), "{args:?} does not name {name}: {err}");
        }
    }
}

#[test]
fn bad_flags_exit_two_with_usage_on_stderr() {
    let unknown = run(&["--bogus"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("usage:"));

    let bad_workload = run(&["--workload", "bogus"]);
    assert_eq!(bad_workload.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_workload.stderr).contains("unknown workload"));

    // The robustness tables are `repro robustness`, which takes no
    // scenario flag; `ablation` refuses one before writing anything.
    let out_dir = TempOut::new("analyze", "ablation-fault");
    for flag in ["--fault", "--chaos"] {
        let out = repro(&["ablation", flag, "all", "--out", out_dir.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "ablation {flag} all");
        assert!(out.stdout.is_empty(), "ablation {flag} all ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with(&format!("unknown argument '{flag}'")), "{err}");
    }
    assert!(out_dir.read_dir().unwrap().next().is_none(), "ablation wrote into --out");

    // Powers of two no run can build (a tag store the allocator aborts
    // on, a line count that wraps to 0, a one-line cache the model does
    // not cover) are refused up front, not panicked on.
    for (geometry, reason) in [
        ("1099511627776x4", "over the cap"),
        ("4611686018427387904x4", "over the cap"),
        ("1x1", "too small for the model"),
    ] {
        let out = repro(&["geometry", "--scale", "small", "--geometry", geometry]);
        assert_eq!(out.status.code(), Some(2), "--geometry {geometry}");
        assert!(out.stdout.is_empty(), "--geometry {geometry} ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with(&format!("--geometry {geometry}: ")), "{err}");
        assert!(err.lines().next().is_some_and(|l| l.contains(reason)), "{err}");
    }
}

#[test]
fn clean_workload_exits_zero() {
    let out_dir = TempOut::new("analyze", "clean");
    let out = run(&["--scale", "small", "--workload", "clean", "--out", out_dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("clean: 0 race(s)"), "{}", stdout(&out));
    assert!(out_dir.join("analyze.csv").is_file());
}

#[test]
fn racy_workload_is_flagged_with_both_accesses_and_clocks() {
    let out_dir = TempOut::new("analyze", "racy");
    let out = run(&["--scale", "small", "--workload", "racy", "--out", out_dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("data-race"), "{text}");
    // The race line carries both access spans and both vector clocks.
    assert!(text.contains("is concurrent with"), "{text}");
    assert!(text.matches("write of [").count() >= 2, "{text}");
    assert!(text.matches(':').count() >= 2 && text.contains('{'), "{text}");
    assert!(text.contains("racy: 1 race(s)"), "{text}");
}

#[test]
fn verdict_and_csv_stable_across_jobs_and_reruns() {
    let mut csvs = Vec::new();
    for (i, jobs) in ["1", "2", "4", "1"].iter().enumerate() {
        let out_dir = TempOut::new("analyze", &format!("determinism-{i}"));
        let out = run(&["--scale", "small", "--jobs", jobs, "--out", out_dir.to_str().unwrap()]);
        // Both workloads run; the racy one drives the nonzero exit.
        assert_eq!(out.status.code(), Some(1), "jobs={jobs}");
        csvs.push(std::fs::read_to_string(out_dir.join("analyze.csv")).expect("csv written"));
    }
    assert!(csvs.windows(2).all(|w| w[0] == w[1]), "analyze.csv varies across jobs/reruns");
}
