//! Per-run scratch directories under the system temp dir, removed when
//! the run ends: on success, on an error return and on a panic alike.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory `<temp>/<prefix>_<pid>_<n>`, deleted with its
/// contents on drop. `n` counts the directories made by this process, so
/// two runs in one process (as in a test binary) never share one.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates the directory.
    pub fn new(prefix: &str) -> Result<Self, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a directory that cannot be removed is not worth a
        // panic while unwinding.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_removes_the_directory_and_its_files() {
        let dir = ScratchDir::new("tclose_perf_scratch").unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("file.txt"), "x").unwrap();
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists(), "{} left behind", path.display());

        // Unwinding drops the guard too.
        let path = std::panic::catch_unwind(|| {
            let dir = ScratchDir::new("tclose_perf_scratch").unwrap();
            std::fs::write(dir.path().join("file.txt"), "x").unwrap();
            std::panic::panic_any(dir.path().to_path_buf());
        })
        .unwrap_err()
        .downcast::<PathBuf>()
        .unwrap();
        assert!(!path.exists(), "{} left behind", path.display());
    }

    #[test]
    fn directories_are_distinct_within_a_process() {
        let a = ScratchDir::new("tclose_perf_scratch").unwrap();
        let b = ScratchDir::new("tclose_perf_scratch").unwrap();
        assert_ne!(a.path(), b.path());
    }
}
