//! Correctness checks on what the measured code returned, and the
//! harness's view of its own memory.

use active_threads::RunReport;
use locality_repro::digest;
use std::error::Error;
use std::path::Path;

/// A run finished all its threads and aborted none.
///
/// `Engine::run` returns only once no thread is live, so with nothing
/// aborted every thread ever created has completed; `spawned` counts the
/// ones created before the run (merge and tsp create more inside it).
///
/// # Errors
///
/// Returns what is wrong with the report.
pub fn run_is_complete(report: &RunReport, spawned: u64) -> Result<(), String> {
    if report.threads_aborted != 0 {
        return Err(format!("{} threads aborted", report.threads_aborted));
    }
    if report.threads_completed < spawned {
        return Err(format!("{} of {spawned} threads completed", report.threads_completed));
    }
    Ok(())
}

/// Two runs of one cell simulated exactly the same thing: a change to
/// host speed must leave every simulated statistic identical.
///
/// # Errors
///
/// Returns the first field that differs.
pub fn same_report(first: &RunReport, again: &RunReport) -> Result<(), String> {
    if first == again {
        return Ok(());
    }
    let fields = [
        ("total_cycles", first.total_cycles, again.total_cycles),
        ("total_l2_misses", first.total_l2_misses, again.total_l2_misses),
        ("total_l2_refs", first.total_l2_refs, again.total_l2_refs),
        ("total_instructions", first.total_instructions, again.total_instructions),
        ("context_switches", first.context_switches, again.context_switches),
        ("threads_completed", first.threads_completed, again.threads_completed),
        ("steals", first.steals, again.steals),
    ];
    let differing = fields.iter().find(|(_, a, b)| a != b);
    Err(match differing {
        Some((name, a, b)) => format!("RunReport differs from the first pass: {name} {a} vs {b}"),
        None => "RunReport differs from the first pass".to_string(),
    })
}

/// One artifact of a golden list, checked.
#[derive(Debug)]
pub struct Artifact {
    /// File name as the golden list spells it.
    pub name: String,
    /// What is wrong with the copy; `None` when it hashes to its golden
    /// value.
    pub fault: Option<String>,
}

/// Checks every file named in a `sha256sum`-style golden list against
/// the copy in `dir`. One result per listed file, in list order.
///
/// # Errors
///
/// Returns the I/O error of reading the golden list itself.
pub fn verify_golden(golden: &Path, dir: &Path) -> Result<Vec<Artifact>, Box<dyn Error>> {
    let list = std::fs::read_to_string(golden)
        .map_err(|e| format!("cannot read {}: {e}", golden.display()))?;
    let mut results = Vec::new();
    for line in list.lines().filter(|l| !l.trim().is_empty()) {
        let Some((want, name)) = line.split_once("  ") else {
            let fault = Some("malformed golden line".to_string());
            results.push(Artifact { name: line.to_string(), fault });
            continue;
        };
        let fault = match std::fs::read(dir.join(name)) {
            Err(e) => Some(format!("cannot read: {e}")),
            Ok(bytes) => {
                let got = digest::hex(&bytes);
                (got != want).then(|| format!("sha256 {got}, golden {want}"))
            }
        };
        results.push(Artifact { name: name.to_string(), fault });
    }
    Ok(results)
}

/// High-water mark of this process's resident set, in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns an error where `/proc/self/status` does not have the field.
pub fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            policy: "lff".into(),
            cpus: 1,
            total_cycles: 1000,
            total_l2_misses: 50,
            total_l2_refs: 100,
            total_instructions: 10_000,
            context_switches: 10,
            threads_completed: 5,
            threads_aborted: 0,
            steals: 0,
            priority_flops: (3, 4),
            degraded_intervals: 0,
            corrected_intervals: 0,
            per_cpu: vec![Default::default()],
        }
    }

    #[test]
    fn determinism_check_fails_on_a_perturbed_report() {
        let first = report();
        assert_eq!(same_report(&first, &report()), Ok(()));
        let one_more_miss = RunReport { total_l2_misses: 51, ..report() };
        let msg = same_report(&first, &one_more_miss).unwrap_err();
        assert!(msg.contains("total_l2_misses 50 vs 51"), "{msg}");
        // A field outside the named list is still caught by `==`.
        let mut per_cpu = report();
        per_cpu.per_cpu[0].tlb_misses = 1;
        assert!(same_report(&first, &per_cpu).is_err());
        let flops = RunReport { priority_flops: (3, 5), ..report() };
        assert!(same_report(&first, &flops).is_err());
    }

    #[test]
    fn completeness_check() {
        assert_eq!(run_is_complete(&report(), 5), Ok(()));
        // merge and tsp finish more threads than were spawned up front.
        assert_eq!(run_is_complete(&report(), 1), Ok(()));
        assert!(run_is_complete(&report(), 6).is_err());
        assert!(run_is_complete(&RunReport { threads_aborted: 1, ..report() }, 5).is_err());
    }

    #[test]
    fn golden_verifier_fails_on_a_one_byte_flip() {
        let dir =
            std::env::temp_dir().join(format!("locality-bench-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body = b"policy,misses\nlff,42\n".to_vec();
        std::fs::write(dir.join("a.csv"), &body).unwrap();
        std::fs::write(dir.join("b.csv"), b"x\n").unwrap();
        let golden = dir.join("golden.sha256");
        let list = format!("{}  a.csv\n{}  b.csv\n", digest::hex(&body), digest::hex(b"x\n"));
        std::fs::write(&golden, list).unwrap();

        let ok = verify_golden(&golden, &dir).unwrap();
        assert_eq!(ok.len(), 2);
        assert!(ok.iter().all(|a| a.fault.is_none()), "{ok:?}");

        let mut flipped = body;
        flipped[3] ^= 1;
        std::fs::write(dir.join("a.csv"), &flipped).unwrap();
        let bad = verify_golden(&golden, &dir).unwrap();
        assert!(bad[0].fault.as_ref().is_some_and(|why| why.contains("golden")), "{bad:?}");
        assert!(bad[0].name == "a.csv" && bad[1].fault.is_none());

        std::fs::remove_file(dir.join("b.csv")).unwrap();
        assert!(verify_golden(&golden, &dir).unwrap()[1].fault.is_some());
        assert!(verify_golden(&dir.join("missing.sha256"), &dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.5);
    }
}
