//! The small-scale artifacts, byte for byte: `repro all --scale small`
//! and the two robustness tables (`repro robustness --scale small`), run
//! in process without the cache, must hash to
//! `results/golden_small.sha256` and to the `small/` rows of
//! `results/golden_robustness.sha256`. A mismatch names the file, the
//! figure that wrote it and the run descriptors behind it. So must the
//! analyzer's, the model checker's and the small traced run's outputs,
//! to `results/golden_analysis.sha256`.

use locality_repro::analyze::run_analyze;
use locality_repro::digest;
use locality_repro::modelcheck::run_modelcheck;
use locality_repro::suite::{run_figures, Figure};
use locality_repro::trace::run_trace;
use locality_repro::{Args, Scale};
use std::path::{Path, PathBuf};

/// One suite invocation, into a directory of its own.
struct Run {
    root: PathBuf,
    args: Args,
    figures: &'static [Figure],
}

impl Run {
    /// Runs `figures` at small scale into `root/sub`, where the golden
    /// file's paths (relative to `root`) expect them.
    fn new(root: PathBuf, sub: &str, figures: &'static [Figure]) -> Run {
        let args = Args {
            scale: Scale::Small,
            out: root.join(sub),
            jobs: 2,
            no_cache: true,
            ..Args::default()
        };
        run_figures(&args, figures).unwrap_or_else(|e| panic!("{figures:?}: {e}"));
        Run { root, args, figures }
    }

    /// The figure that writes `name` (`Fig5` for `fig5_barnes.csv`, or
    /// the run's one figure) and its descriptors, narrowed to those named
    /// after the file (`fig5:barnes/…`) when any are.
    fn written_by(&self, name: &str) -> String {
        let stem = Path::new(name).file_stem().and_then(|s| s.to_str()).unwrap_or(name);
        let named =
            self.figures.iter().find(|f| stem.starts_with(&format!("{f:?}").to_lowercase()));
        let Some(figure) = named.or(match self.figures {
            [only] => Some(only),
            _ => None,
        }) else {
            return "no figure of this run writes it".to_string();
        };
        let labels: Vec<String> = figure
            .requests(&self.args)
            .expect("the figure's descriptors")
            .into_iter()
            .map(|r| r.label)
            .collect();
        let named: Vec<&str> = labels
            .iter()
            .filter(|l| l.replace(':', "_").starts_with(stem))
            .map(String::as_str)
            .collect();
        match (labels.is_empty(), named.is_empty()) {
            (true, _) => format!("written by {figure:?}, which runs no descriptor"),
            (false, true) => format!("written by {figure:?} from {}", labels.join(", ")),
            (false, false) => format!("written by {figure:?} from {}", named.join(", ")),
        }
    }
}

/// The `(sha256, path)` rows of a committed `sha256sum` file whose path
/// starts with `prefix`.
fn golden(file: &str, prefix: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results").join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    text.lines()
        .filter_map(|line| line.split_once("  "))
        .filter(|(_, name)| name.starts_with(prefix))
        .map(|(hash, name)| (hash.to_string(), name.to_string()))
        .collect()
}

#[test]
fn small_scale_artifacts_match_the_golden_hashes() {
    let dir = std::env::temp_dir().join(format!("golden-small-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let suite = [Run::new(dir.join("all"), "", &Figure::ALL)];
    let robustness = [Run::new(dir.join("robustness"), "small", &[Figure::Robustness])];

    let mut failures = Vec::new();
    let mut checked = 0;
    for (table, prefix, runs) in [
        ("golden_small.sha256", "", &suite[..]),
        ("golden_robustness.sha256", "small/", &robustness[..]),
    ] {
        for (want, name) in golden(table, prefix) {
            checked += 1;
            let written = runs.iter().find_map(|run| {
                std::fs::read(run.root.join(&name)).ok().map(|bytes| (run, digest::hex(&bytes)))
            });
            match written {
                None => failures.push(format!("{name}: not written")),
                Some((run, got)) if got != want => failures.push(format!(
                    "{name}: sha256 {got}, {table} has {want}; {}",
                    run.written_by(&name)
                )),
                Some(_) => {}
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(checked, 42, "40 small-scale artifacts and 2 robustness tables");
    assert!(
        failures.is_empty(),
        "artifacts differ from the golden hashes:\n{}",
        failures.join("\n")
    );
}

/// `repro analyze --scale small --workload all`, `repro modelcheck` and
/// `repro trace --scale small`, in process: the findings table, the
/// model checker's table and its three counterexamples, and the traced
/// merge run's metrics, histograms and two exports.
#[test]
fn analysis_outputs_match_the_golden_hashes() {
    let dir = std::env::temp_dir().join(format!("golden-analysis-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let small = Args {
        scale: Scale::Small,
        out: dir.clone(),
        workload: Some("all".into()),
        ..Args::default()
    };
    assert!(run_analyze(&small).unwrap(), "the racy fixture has a confirmed race");
    let all = Args { out: dir.clone(), ..Args::default() };
    assert!(run_modelcheck(&all).unwrap(), "three fixtures violate their invariants");
    run_trace(&Args { scale: Scale::Small, out: dir.clone(), ..Args::default() }).unwrap();

    let rows = golden("golden_analysis.sha256", "");
    let failures: Vec<String> = rows
        .iter()
        .filter_map(|(want, name)| match std::fs::read(dir.join(name)) {
            Err(e) => Some(format!("{name}: not written ({e})")),
            Ok(bytes) if digest::hex(&bytes) != *want => Some(format!(
                "{name}: sha256 {}, golden_analysis.sha256 has {want}",
                digest::hex(&bytes)
            )),
            Ok(_) => None,
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rows.len(), 9, "analyze, modelcheck, three counterexamples and four trace files");
    assert!(failures.is_empty(), "analysis outputs differ:\n{}", failures.join("\n"));
}
