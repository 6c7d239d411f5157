//! The repository's one benchmark (see `README.md` beside this crate).
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one of five fixed workloads through the crates' public functions
//! only, checks what they return, and prints as the last line of its
//! standard output one JSON object: with `--trace 0` every end-to-end
//! metric (tracing off), with `--trace 1` every per-layer metric (spans
//! around each call into a layer, recorded streams replayed into the
//! layers one at a time). Exits non-zero without a result line when it
//! cannot measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod check;
mod layers;
mod measure;
mod probes;
mod report;
mod repro;
mod spans;
mod stats;

use cells::Workload;
use report::Outcome;
use std::error::Error;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: locality-benchmark --workload NAME --seed N --seconds S --trace 0|1
  --workload  repro_small | policy_paper | mem_direct | mem_assoc | sched_switch
  --seed      added to every application's default seed (default 1998)
  --seconds   how long to measure (default 15)
  --trace     0: end-to-end metrics, tracing off (default)
              1: per-layer metrics; spans go to benchmark/.run/";

/// The benchmark's own directory, where it was built: scratch output
/// goes under it, the repository's golden hashes sit one level up.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch directory of this process, inside the checkout and ignored
/// by git. Removed again when the run ends.
fn run_dir() -> PathBuf {
    bench_dir().join(".run").join(std::process::id().to_string())
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { workload: Workload::MemDirect, seed: 1998, seconds: 15.0, trace: false };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                opts.workload = Workload::from_name(value).ok_or_else(bad)?;
                named = true;
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if named {
        Ok(opts)
    } else {
        Err("--workload is required".to_string())
    }
}

fn measure(opts: &Options, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    match (opts.workload, opts.trace) {
        (Workload::ReproSmall, false) => repro::run(opts.seconds, out),
        (Workload::ReproSmall, true) => repro::trace(out),
        (w, false) => measure::run(w, opts.seed, opts.seconds, out),
        (w, true) => layers::trace(w, opts.seed, opts.seconds, out),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The cold and warm `repro-all` passes run in children of this very
    // binary, because `suite::run_figures` prints its tables.
    if let [flag, dir] = args.as_slice() {
        if flag == repro::CHILD_FLAG {
            std::process::exit(repro::child(Path::new(dir)));
        }
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let measured = measure(&opts, &mut out);
    // Scratch output never outlives the run, whatever happened.
    let _ = std::fs::remove_dir_all(run_dir());
    if let Err(e) = measured {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let catalogue: &[(&str, &str)] =
        if opts.trace { &report::PER_LAYER } else { &report::END_TO_END };
    if !opts.trace {
        // Every workload reports every end-to-end metric; a traced run
        // leaves the layers it does not exercise at 0.
        out.require_all(catalogue);
    }
    print!("{}", out.table(opts.workload.name(), catalogue));
    println!(
        "{:<13} ops_failed/ops_attempted {}/{}",
        opts.workload.name(),
        out.failed,
        out.attempted
    );
    for failure in &out.failures {
        println!("FAILED {failure}");
    }
    println!("{}", out.result_line(catalogue));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let o = parse(&args("--workload mem_assoc --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(o.workload, Workload::MemAssoc);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        let d = parse(&args("--workload repro_small")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1998, 15.0, false));
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            "",
            "--seed 3",
            "--workload nope",
            "--workload mem_direct --trace 2",
            "--workload mem_direct --seconds 0",
            "--workload mem_direct --seconds",
            "--workload mem_direct --jobs 4",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
