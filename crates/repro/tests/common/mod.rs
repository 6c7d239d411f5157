//! What the integration tests share: an output directory of their own
//! that goes away with the test, a failing one included.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A fresh directory `locality-<suite>-test-<pid>-<label>` under the
/// system temp dir, removed with all it holds when the guard drops, so a
/// panic that unwinds through its scope removes it too. A directory of
/// the same name left by a killed run is emptied first.
pub struct TempOut(PathBuf);

impl TempOut {
    pub fn new(suite: &str, label: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("locality-{suite}-test-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp out dir");
        TempOut(dir)
    }
}

impl Deref for TempOut {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempOut {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
