//! `repro` with a closed standard output: the failed writes neither
//! panic nor stop the CSVs, and the run exits 1 with one `error:` line
//! naming standard output.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_fails_the_run_after_every_csv_is_written() {
    let fig4: Vec<String> = "abcde".chars().map(|c| format!("fig4{c}.csv")).collect();
    for (sub, csvs) in [("table1", vec!["table1.csv".to_string()]), ("fig4", fig4)] {
        let dir =
            std::env::temp_dir().join(format!("locality-stdout-test-{}-{sub}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([sub, "--scale", "small", "--out"])
            .arg(&dir)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{sub}: {stderr}");
        assert!(!stderr.contains("panicked"), "{sub}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{sub}: {stderr}");
        assert!(errors[0].contains("standard output"), "{sub}: {stderr}");
        for csv in &csvs {
            assert!(dir.join(csv).is_file(), "{sub}: {csv} missing");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
