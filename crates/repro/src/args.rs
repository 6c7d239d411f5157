//! Minimal command-line handling shared by the `repro` subcommands.

use crate::error::ReproError;
use crate::table::TableError;
use locality_core::ModelParams;
use locality_sim::{CacheGeometry, MachineConfig};
use std::path::PathBuf;

/// The flags half of the `--help` text, below [`suite`](crate::suite)'s
/// name table, which lists who reads each flag past the first four.
pub(crate) const FLAGS_HELP: &str = "flags:
  --scale paper|small  workload scale (default: paper)
  --out DIR            output directory for CSV files (default: results)
  --jobs N             worker threads for independent runs
                       (default: available parallelism; modelcheck
                       explores on one thread and ignores it)
  --no-cache           ignore and do not write the on-disk result cache
                       (figures only: analyze, modelcheck and trace
                       never cache)
  --workload NAME      analyze: which fixture workload to analyze
                       (clean, racy, or all; default: all)
                       modelcheck: which fixture workload to explore
                       (clean, racy, deadlock, lostwake, or all;
                       default: all)
                       trace: which monitored app to trace
                       (barnes, fmm, ocean, merge, photo, tsp,
                       typechecker, raytrace, or all)
  --policy NAME        trace only: scheduling policy of the traced run
                       (fcfs, lff, or crt; default: lff)
  --depth-bound N      modelcheck: truncate schedules after N picks, each
                       decision and each folded yield (default: 64)
  --max-schedules N    modelcheck: stop exploring after N schedules
                       (default: 20000)
  --preempt-bound K    modelcheck: only explore schedules with at most
                       K preemptions (default: unbounded)
  --replay FILE        modelcheck: re-execute a serialized counterexample
                       and verify the violation reproduces
  --geometry SxW       geometry: restrict the validation sweep to one
                       L2 geometry of S sets by W ways (both positive
                       powers of two, 2 to 1048576 lines in all,
                       e.g. 1024x8)
  --page-size BYTES    geometry: TLB page size in bytes (a power of
                       two, at least the 64-byte line; default: 8192)
  --help, -h           print this help";

/// Workload scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's parameters (default).
    Paper,
    /// Scaled-down for smoke runs and CI.
    Small,
}

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload scale.
    pub scale: Scale,
    /// Output directory for CSV files.
    pub out: PathBuf,
    /// Workload keyword (`--workload NAME|all`), used by `repro
    /// analyze` (clean/racy fixtures) and `repro trace` (monitored
    /// app); validated there so bad values surface as usage errors
    /// through [`ReproError::Usage`](crate::ReproError).
    pub workload: Option<String>,
    /// Scheduling-policy keyword (`--policy fcfs|lff|crt`), used by
    /// `repro trace`; validated there so bad values surface as usage
    /// errors through [`ReproError::Usage`](crate::ReproError).
    pub policy: Option<String>,
    /// Worker threads used by the experiment runner (`--jobs N`).
    pub jobs: usize,
    /// Disable the on-disk result cache (`--no-cache`).
    pub no_cache: bool,
    /// Schedule depth bound for `repro modelcheck`
    /// (`--depth-bound N`); `None` uses its default.
    pub depth_bound: Option<u64>,
    /// Exploration schedule cap for `repro modelcheck`
    /// (`--max-schedules N`); `None` uses its default.
    pub max_schedules: Option<u64>,
    /// Preemption bound for `repro modelcheck`
    /// (`--preempt-bound K`); `None` explores without a bound.
    pub preempt_bound: Option<u64>,
    /// Counterexample file to re-execute (`--replay FILE`), used by
    /// `repro modelcheck`.
    pub replay: Option<PathBuf>,
    /// L2 geometry override (`--geometry SxW`), used by `repro
    /// geometry` to restrict the sweep to one `(sets, ways)` cell. Both
    /// components are validated as positive powers of two at parse
    /// time.
    pub geometry: Option<(u64, u64)>,
    /// TLB page size override in bytes (`--page-size BYTES`), used by
    /// `repro geometry`; validated at parse time as a power of two
    /// that holds at least one cache line.
    pub page_size: Option<u64>,
}

/// Outcome of parsing an argument list.
// Boxed: `Args` dwarfs the unit `Help` variant, and every caller
// immediately unwraps into the help/run split anyway.
#[derive(Debug, Clone)]
pub enum Parsed {
    /// Normal invocation.
    Run(Box<Args>),
    /// `--help`/`-h` was requested; the caller should print the usage
    /// text to stdout and exit successfully.
    Help,
}

/// Looks a keyword flag's value up in the flag's table; a flag that
/// accepts `all` lists it as a row like any other. Every "unknown …
/// (expected …)" usage message comes from here.
///
/// # Errors
///
/// Returns [`ReproError::Usage`] naming the table's keywords.
pub(crate) fn keyword<T: Copy>(
    what: &str,
    value: &str,
    table: &[(&str, T)],
) -> Result<T, ReproError> {
    table.iter().find(|(name, _)| *name == value).map(|&(_, row)| row).ok_or_else(|| {
        let names: Vec<&str> = table.iter().map(|&(name, _)| name).collect();
        ReproError::Usage(format!("unknown {what} '{value}' (expected {})", names.join("|")))
    })
}

/// [`keyword`] for a flag whose value picks one row of `all` or every
/// one: the selection, in table order.
pub(crate) fn keyword_or_all<T: Copy>(
    what: &str,
    value: &str,
    all: &[T],
    name: fn(&T) -> &'static str,
) -> Result<Vec<T>, ReproError> {
    let mut table: Vec<(&str, &[T])> = vec![("all", all)];
    table.extend(all.iter().map(|row| (name(row), std::slice::from_ref(row))));
    keyword(what, value, &table).map(<[T]>::to_vec)
}

/// Parses a strictly positive integer flag value.
fn parse_positive(flag: &str, v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got '{v}'")),
    }
}

/// Parses a `--page-size` value and holds it to what a machine accepts:
/// a power of two that holds at least one cache line.
fn parse_page_size(v: &str) -> Result<u64, String> {
    let bytes =
        v.parse::<u64>().map_err(|_| format!("--page-size needs a byte count, got '{v}'"))?;
    MachineConfig::ultra1()
        .with_page_size(bytes)
        .validate()
        .map_err(|e| format!("--page-size {v}: {e}"))?;
    Ok(bytes)
}

/// Parses a `SxW` geometry value and holds it to what a run can build:
/// a [`CacheGeometry`] of 64-byte lines that validates (both components
/// positive powers of two, capacity under the cap) and has the two lines
/// the footprint model needs.
fn parse_geometry(v: &str) -> Result<(u64, u64), String> {
    let bad = || format!("--geometry needs SETSxWAYS, both positive powers of two, got '{v}'");
    let (s, w) = v.split_once('x').ok_or_else(bad)?;
    let sets = s.parse::<u64>().map_err(|_| bad())?;
    let ways = w.parse::<u64>().map_err(|_| bad())?;
    let geometry = CacheGeometry::new(sets, ways, crate::microbench::LINE)
        .map_err(|e| format!("--geometry {v}: {e}"))?;
    ModelParams::new(geometry.lines() as usize).map_err(|e| format!("--geometry {v}: {e}"))?;
    Ok((sets, ways))
}

/// The default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: Scale::Paper,
            out: PathBuf::from("results"),
            workload: None,
            policy: None,
            jobs: default_jobs(),
            no_cache: false,
            depth_bound: None,
            max_schedules: None,
            preempt_bound: None,
            replay: None,
            geometry: None,
            page_size: None,
        }
    }
}

impl Args {
    /// Parses the flags of `FLAGS_HELP` from an iterator of arguments
    /// (the program name must already be consumed) for a subcommand that
    /// reads the flags `reads` besides the four every subcommand accepts.
    /// `--help`/`-h` yields [`Parsed::Help`] rather than an error.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for printing on unknown, unread or
    /// malformed arguments.
    pub fn parse(args: impl IntoIterator<Item = String>, reads: &[&str]) -> Result<Parsed, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value (paper|small)")?;
                    let scales = [("paper", Scale::Paper), ("small", Scale::Small)];
                    out.scale = keyword("scale", &v, &scales).map_err(|e| e.to_string())?;
                }
                "--out" => {
                    let v = it.next().ok_or("--out needs a directory")?;
                    out.out = PathBuf::from(v);
                }
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a worker count")?;
                    out.jobs = match v.parse::<usize>() {
                        Ok(n) if n > 0 => n,
                        _ => return Err(format!("--jobs needs a positive integer, got '{v}'")),
                    };
                }
                "--no-cache" => out.no_cache = true,
                "--workload" => {
                    let v = it.next().ok_or("--workload needs a name (or 'all')")?;
                    out.workload = Some(v);
                }
                "--policy" => {
                    let v = it.next().ok_or("--policy needs a name (fcfs|lff|crt)")?;
                    out.policy = Some(v);
                }
                "--depth-bound" => {
                    let v = it.next().ok_or("--depth-bound needs a decision count")?;
                    out.depth_bound = Some(parse_positive("--depth-bound", &v)?);
                }
                "--max-schedules" => {
                    let v = it.next().ok_or("--max-schedules needs a schedule count")?;
                    out.max_schedules = Some(parse_positive("--max-schedules", &v)?);
                }
                "--preempt-bound" => {
                    let v = it.next().ok_or("--preempt-bound needs a preemption count")?;
                    out.preempt_bound = Some(v.parse::<u64>().map_err(|_| {
                        format!("--preempt-bound needs a non-negative integer, got '{v}'")
                    })?);
                }
                "--replay" => {
                    let v = it.next().ok_or("--replay needs a counterexample file")?;
                    out.replay = Some(PathBuf::from(v));
                }
                "--geometry" => {
                    let v = it.next().ok_or("--geometry needs SETSxWAYS (e.g. 1024x8)")?;
                    out.geometry = Some(parse_geometry(&v)?);
                }
                "--page-size" => {
                    let v = it.next().ok_or("--page-size needs a byte count")?;
                    out.page_size = Some(parse_page_size(&v)?);
                }
                "--help" | "-h" => return Ok(Parsed::Help),
                other => return Err(format!("unknown argument '{other}'")),
            }
            if !["--scale", "--out", "--jobs", "--no-cache"].contains(&arg.as_str())
                && !reads.contains(&arg.as_str())
            {
                return Err(format!("this subcommand does not read {arg}"));
            }
        }
        Ok(Parsed::Run(Box::new(out)))
    }

    /// Creates the output directory and returns the path for `name`.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Io`], naming the directory, if it cannot be
    /// created.
    pub fn csv_path(&self, name: &str) -> Result<PathBuf, TableError> {
        std::fs::create_dir_all(&self.out)
            .map_err(|source| TableError::Io { path: self.out.clone(), source })?;
        Ok(self.out.join(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prop_assert;

    /// Every flag of [`FLAGS_HELP`].
    fn flags() -> Vec<&'static str> {
        let words = FLAGS_HELP.split(|c: char| c.is_whitespace() || c == ',');
        words.filter(|word| word.starts_with('-')).collect()
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        match Args::parse(args.iter().map(|s| s.to_string()), &flags())? {
            Parsed::Run(a) => Ok(*a),
            Parsed::Help => Err("help requested".to_string()),
        }
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.out, PathBuf::from("results"));
        assert!(a.jobs >= 1);
        assert!(!a.no_cache);
    }

    #[test]
    fn scale_and_out() {
        let a = parse(&["--scale", "small", "--out", "/tmp/x"]).unwrap();
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn jobs_and_no_cache() {
        let a = parse(&["--jobs", "4", "--no-cache"]).unwrap();
        assert_eq!(a.jobs, 4);
        assert!(a.no_cache);
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
    }

    #[test]
    fn workload_keyword() {
        assert_eq!(parse(&[]).unwrap().workload, None);
        let a = parse(&["--workload", "racy"]).unwrap();
        assert_eq!(a.workload.as_deref(), Some("racy"));
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn policy_keyword() {
        assert_eq!(parse(&[]).unwrap().policy, None);
        let a = parse(&["--policy", "crt"]).unwrap();
        assert_eq!(a.policy.as_deref(), Some("crt"));
        assert!(parse(&["--policy"]).is_err());
    }

    #[test]
    fn modelcheck_bounds() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.depth_bound, None);
        assert_eq!(a.max_schedules, None);
        assert_eq!(a.preempt_bound, None);
        assert_eq!(a.replay, None);

        let a = parse(&[
            "--depth-bound",
            "32",
            "--max-schedules",
            "500",
            "--preempt-bound",
            "0",
            "--replay",
            "ce.txt",
        ])
        .unwrap();
        assert_eq!(a.depth_bound, Some(32));
        assert_eq!(a.max_schedules, Some(500));
        assert_eq!(a.preempt_bound, Some(0));
        assert_eq!(a.replay, Some(PathBuf::from("ce.txt")));

        assert!(parse(&["--depth-bound"]).is_err());
        assert!(parse(&["--depth-bound", "0"]).is_err());
        assert!(parse(&["--max-schedules", "lots"]).is_err());
        assert!(parse(&["--preempt-bound", "-1"]).is_err());
        assert!(parse(&["--replay"]).is_err());
    }

    #[test]
    fn geometry_axis() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.geometry, None);
        assert_eq!(a.page_size, None);

        let a = parse(&["--geometry", "1024x8", "--page-size", "4096"]).unwrap();
        assert_eq!(a.geometry, Some((1024, 8)));
        assert_eq!(a.page_size, Some(4096));
        assert_eq!(parse(&["--geometry", "1x8192"]).unwrap().geometry, Some((1, 8192)));

        assert!(parse(&["--geometry"]).is_err());
        assert!(parse(&["--geometry", "1024"]).is_err());
        assert!(parse(&["--geometry", "1024x0"]).is_err());
        assert!(parse(&["--geometry", "0x8"]).is_err());
        assert!(parse(&["--geometry", "1000x8"]).is_err());
        assert!(parse(&["--geometry", "1024x3"]).is_err());
        assert!(parse(&["--geometry", "8x8x8"]).is_err());
        // Powers of two that no run can build: a tag store the allocator
        // would abort on, a line count that wraps to 0, a one-line cache.
        let err = parse(&["--geometry", "1099511627776x4"]).unwrap_err();
        assert!(err.contains("over the cap"), "{err}");
        let err = parse(&["--geometry", "4611686018427387904x4"]).unwrap_err();
        assert!(err.contains("over the cap"), "{err}");
        let err = parse(&["--geometry", "1x1"]).unwrap_err();
        assert!(err.contains("too small for the model"), "{err}");
        assert_eq!(parse(&["--geometry", "1x2"]).unwrap().geometry, Some((1, 2)));
        assert!(parse(&["--page-size"]).is_err());
        assert!(parse(&["--page-size", "0"]).is_err());
        assert!(parse(&["--page-size", "1000"]).is_err());
        assert!(parse(&["--page-size", "many"]).is_err());
        // A page below the line size aliases lines; the walk never ends.
        for small in ["1", "32"] {
            let err = parse(&["--page-size", small]).unwrap_err();
            assert!(err.contains("64-byte cache line"), "{err}");
        }
        assert_eq!(parse(&["--page-size", "64"]).unwrap().page_size, Some(64));
    }

    #[test]
    fn an_unwritable_out_dir_is_named_in_the_error() {
        let a = parse(&["--out", "/proc/nope"]).unwrap();
        let err = a.csv_path("table1.csv").unwrap_err();
        assert!(err.to_string().contains("/proc/nope"), "{err}");
    }

    #[test]
    fn keyword_tables_select_and_name_their_rows() {
        let table = [("a", 1), ("b", 2)];
        assert_eq!(keyword("letter", "b", &table).unwrap(), 2);
        let err = keyword("letter", "c", &table).unwrap_err();
        assert_eq!(err.to_string(), "unknown letter 'c' (expected a|b)");
        let name = |n: &u8| if *n == 1 { "one" } else { "two" };
        assert_eq!(keyword_or_all("digit", "two", &[1u8, 2], name).unwrap(), vec![2]);
        assert_eq!(keyword_or_all("digit", "all", &[1u8, 2], name).unwrap(), vec![1, 2]);
        let err = keyword_or_all("digit", "six", &[1u8, 2], name).unwrap_err();
        assert_eq!(err.to_string(), "unknown digit 'six' (expected all|one|two)");
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(matches!(Args::parse(["-h".to_string()], &[]), Ok(Parsed::Help)));
        assert!(matches!(Args::parse(["--help".to_string()], &[]), Ok(Parsed::Help)));
    }

    proptest::proptest! {
        /// Token sequences drawn from the flag vocabulary, keywords,
        /// boundary integers and arbitrary strings parse to arguments, to
        /// help or to a message, never to a panic.
        #[test]
        fn token_sequences_parse_to_args_help_or_a_message(
            sequences in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        0usize..=usize::MAX,
                        0usize..=usize::MAX,
                        proptest::collection::vec(0u32..0x11_0000, 0..4),
                    ),
                    0..8,
                ),
                32,
            ),
        ) {
            let flags = flags();
            let mut values: Vec<String> =
                ["all", "paper", "small", "lff", "racy", "", "0", "1", "-1", "64", "1x1", "1024x8"]
                    .map(str::to_string)
                    .to_vec();
            values.extend(
                [u64::MAX.to_string(), format!("{}0", u64::MAX), format!("{}x4", 1u64 << 62)],
            );
            for pairs in &sequences {
                // Each pair is a flag, a value, both or neither; the first
                // value past the vocabulary is an arbitrary string.
                let mut argv: Vec<String> = Vec::new();
                for (flag, value, chars) in pairs {
                    argv.extend(flags.get(flag % (flags.len() + 1)).map(|f| f.to_string()));
                    let value = value % (values.len() + 2);
                    match values.get(value) {
                        Some(word) => argv.push(word.clone()),
                        None if value == values.len() => {
                            argv.push(chars.iter().filter_map(|&c| char::from_u32(c)).collect());
                        }
                        None => {}
                    }
                }
                if let Err(msg) = Args::parse(argv.clone(), &flags) {
                    prop_assert!(!msg.is_empty(), "{argv:?}");
                }
            }
        }
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale", "huge"]).is_err());
        assert!(parse(&["--scale"]).is_err());
    }
}
