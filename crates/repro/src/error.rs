//! The repro harness's error type, following the engine's typed-error
//! conversion: binaries propagate failures instead of panicking.

use crate::table::TableError;
use active_threads::RuntimeError;
use locality_core::ModelError;

/// Anything that can go wrong while regenerating a figure or table.
#[derive(Debug)]
pub enum ReproError {
    /// Building or writing an output table failed.
    Table(TableError),
    /// A simulated run failed inside the engine.
    Runtime(RuntimeError),
    /// An annotation or model parameter was invalid.
    Model(ModelError),
    /// Filesystem work outside table writing (output or cache
    /// directories) failed.
    Io(std::io::Error),
    /// The runner finished but a figure's requested result is missing —
    /// a descriptor bookkeeping bug.
    MissingResult(String),
    /// A command-line value was invalid (exit status 2, like the arg
    /// parser's own errors).
    Usage(String),
    /// A model-checker counterexample replayed without reproducing its
    /// violation (the schedule diverged, or ran clean).
    NotReproduced(String),
    /// A disk-cache entry failed its checksum or decode. The entry has
    /// been quarantined (renamed aside) and the run is recomputed; the
    /// error is surfaced for logging, never fatal to a suite.
    CorruptCache {
        /// Where the quarantined entry now lives.
        quarantined: std::path::PathBuf,
        /// What was wrong with it.
        what: String,
    },
    /// A run descriptor panicked inside its isolation boundary
    /// (`catch_unwind`); the payload's message is preserved, after the
    /// request's label when the runner knows it.
    RunPanicked {
        /// The panic message.
        what: String,
    },
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::Table(e) => write!(f, "table output: {e}"),
            ReproError::Runtime(e) => write!(f, "simulation run: {e}"),
            ReproError::Model(e) => write!(f, "model setup: {e}"),
            ReproError::Io(e) => write!(f, "i/o: {e}"),
            ReproError::MissingResult(key) => {
                write!(f, "runner produced no result for descriptor {key}")
            }
            ReproError::Usage(msg) => write!(f, "{msg}"),
            ReproError::NotReproduced(msg) => {
                write!(f, "counterexample did not reproduce its violation: {msg}")
            }
            ReproError::CorruptCache { quarantined, what } => {
                write!(f, "corrupt cache entry ({what}); quarantined at {}", quarantined.display())
            }
            ReproError::RunPanicked { what } => write!(f, "run panicked: {what}"),
        }
    }
}

impl std::error::Error for ReproError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReproError::Table(e) => Some(e),
            ReproError::Runtime(e) => Some(e),
            ReproError::Model(e) => Some(e),
            ReproError::Io(e) => Some(e),
            ReproError::MissingResult(_)
            | ReproError::Usage(_)
            | ReproError::NotReproduced(_)
            | ReproError::CorruptCache { .. }
            | ReproError::RunPanicked { .. } => None,
        }
    }
}

impl From<TableError> for ReproError {
    fn from(e: TableError) -> Self {
        ReproError::Table(e)
    }
}

impl From<RuntimeError> for ReproError {
    fn from(e: RuntimeError) -> Self {
        ReproError::Runtime(e)
    }
}

impl From<ModelError> for ReproError {
    fn from(e: ModelError) -> Self {
        ReproError::Model(e)
    }
}

impl From<std::io::Error> for ReproError {
    fn from(e: std::io::Error) -> Self {
        ReproError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_with_context() {
        let e = ReproError::from(TableError::WidthMismatch { expected: 2, got: 1 });
        assert!(e.to_string().contains("table output"));
        let e = ReproError::MissingResult("Walk(..)".to_string());
        assert!(e.to_string().contains("Walk"));
    }
}
