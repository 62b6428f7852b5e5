//! Shared test support: per-test unique temporary directories, and the
//! pivot from column chunks back to rows that store tests compare through.
//!
//! Every test binary in the workspace used to carry its own copy of a
//! `unique_dir(tag)` helper. This is the single blessed implementation;
//! `eva-harness` re-exports it for integration tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// The rows of a column chunk (one [`Column`](crate::Column) per field, all
/// of one length) — what a test compares against the rows it stored.
pub fn rows_of(columns: &[crate::Column]) -> Vec<crate::Row> {
    let n = columns.first().map_or(0, crate::Column::len);
    (0..n)
        .map(|i| columns.iter().map(|c| c.value_at(i)).collect())
        .collect()
}

/// Create and return a fresh empty directory under the system temp dir.
///
/// The name embeds the tag, the process id (parallel test binaries are
/// separate processes), and a per-process counter (repeated calls with the
/// same tag never collide), so no two callers can ever race on a shared
/// directory. Any stale directory from a crashed previous run is removed
/// first.
pub fn unique_temp_dir(tag: &str) -> PathBuf {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eva_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create unique temp dir");
    dir
}

/// RAII variant of [`unique_temp_dir`]: the directory is deleted on drop.
///
/// Use this for loops that create many scratch directories (the fuzzer's
/// per-case save/load cycles) so the temp dir does not fill up.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh unique directory that lives until this value drops.
    pub fn new(tag: &str) -> Self {
        TempDir {
            path: unique_temp_dir(tag),
        }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_unique_and_created() {
        let a = unique_temp_dir("testutil");
        let b = unique_temp_dir("testutil");
        assert_ne!(a, b);
        assert!(a.is_dir() && b.is_dir());
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn tempdir_removes_on_drop() {
        let path = {
            let t = TempDir::new("testutil_raii");
            assert!(t.path().is_dir());
            t.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
