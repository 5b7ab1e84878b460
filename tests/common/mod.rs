//! Helpers shared by the integration-test binaries.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch directory path owned by one test and removed (with everything
/// under it) when dropped.
///
/// The name combines the process id, the caller's test name and a
/// process-wide counter, so no two tests — in one binary or across
/// concurrently running binaries — ever share a directory, and one test's
/// cleanup can never delete another's files mid-save. The directory itself
/// is not created; `save` calls create it.
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, unique path under the system temp directory.
    pub fn new(test: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("brepartition-test-{}-{test}-{n}", std::process::id());
        TempDir(std::env::temp_dir().join(name))
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
