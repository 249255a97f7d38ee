//! Retention and recovery over a directory of checkpoint files.
//!
//! Checkpoints are named `ckpt-<tick:012>.bzck` (tick in simulation
//! milliseconds, zero-padded so lexical order equals numeric order).
//! [`CheckpointDir::latest_good`] scans newest-first, validating each file
//! and collecting a diagnostic for every corrupt, torn, or mismatched one
//! it skips — the caller gets the best usable checkpoint *and* the full
//! story of what was wrong with the rest.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::checkpoint::{Checkpoint, CheckpointError};

/// Filename prefix for checkpoint files.
pub const FILE_PREFIX: &str = "ckpt-";
/// Filename extension for checkpoint files.
pub const FILE_EXT: &str = "bzck";

/// A directory holding the checkpoints of one run.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    root: PathBuf,
}

/// A checkpoint file that was skipped during a scan, with the reason.
#[derive(Debug)]
pub struct SkippedCheckpoint {
    /// The file that was skipped.
    pub path: PathBuf,
    /// Why it was unusable.
    pub error: CheckpointError,
}

/// The result of scanning a checkpoint directory for the newest good file.
#[derive(Debug)]
pub struct ScanOutcome {
    /// The newest checkpoint that validated, if any.
    pub best: Option<(PathBuf, Checkpoint)>,
    /// Files that were present but unusable, newest first.
    pub skipped: Vec<SkippedCheckpoint>,
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be created.
    pub fn create(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// Wraps an existing directory without touching the filesystem.
    #[must_use]
    pub fn open(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The canonical file path for a checkpoint taken at `tick_ms`.
    #[must_use]
    pub fn file_for_tick(&self, tick_ms: u64) -> PathBuf {
        self.root
            .join(format!("{FILE_PREFIX}{tick_ms:012}.{FILE_EXT}"))
    }

    /// Parses the tick out of a checkpoint filename, if it is one.
    #[must_use]
    pub fn tick_of(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let stem = name
            .strip_prefix(FILE_PREFIX)?
            .strip_suffix(&format!(".{FILE_EXT}"))?;
        stem.parse().ok()
    }

    /// All checkpoint files present, sorted oldest first by tick.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be read.
    pub fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            if let Some(tick) = Self::tick_of(&path) {
                out.push((tick, path));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Scans for the newest checkpoint that validates, skipping (and
    /// reporting) corrupt, torn, or version-mismatched files.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be read;
    /// per-file validation failures are reported in the outcome, not as
    /// an error.
    pub fn latest_good(&self) -> io::Result<ScanOutcome> {
        let mut files = self.list()?;
        files.reverse(); // newest first
        let mut skipped = Vec::new();
        for (_, path) in files {
            match Checkpoint::read(&path) {
                Ok(ckpt) => {
                    return Ok(ScanOutcome {
                        best: Some((path, ckpt)),
                        skipped,
                    });
                }
                Err(error) => skipped.push(SkippedCheckpoint { path, error }),
            }
        }
        Ok(ScanOutcome {
            best: None,
            skipped,
        })
    }

    /// Deletes all but the newest `keep` checkpoint files. Returns the
    /// paths removed.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if listing or deleting fails.
    pub fn prune(&self, keep: usize) -> io::Result<Vec<PathBuf>> {
        let files = self.list()?;
        let excess = files.len().saturating_sub(keep);
        let mut removed = Vec::with_capacity(excess);
        for (_, path) in files.into_iter().take(excess) {
            fs::remove_file(&path)?;
            removed.push(path);
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointMeta;
    use std::io::Write as _;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bz-state-dir-{name}"));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ckpt(tick_ms: u64) -> Checkpoint {
        Checkpoint {
            meta: CheckpointMeta {
                kind: "trial".to_owned(),
                tick_ms,
                config_crc: 7,
                label: "t".to_owned(),
            },
            payload: tick_ms.to_le_bytes().to_vec(),
        }
    }

    #[test]
    fn naming_round_trips() {
        let dir = CheckpointDir::open("/tmp/x");
        let path = dir.file_for_tick(300_000);
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "ckpt-000000300000.bzck"
        );
        assert_eq!(CheckpointDir::tick_of(&path), Some(300_000));
        assert_eq!(CheckpointDir::tick_of(Path::new("notes.txt")), None);
    }

    #[test]
    fn latest_good_skips_corrupt_newest() {
        let root = scratch("skip");
        let dir = CheckpointDir::create(&root).unwrap();
        ckpt(60_000)
            .write_atomic(&dir.file_for_tick(60_000))
            .unwrap();
        ckpt(120_000)
            .write_atomic(&dir.file_for_tick(120_000))
            .unwrap();
        // Corrupt the newest in place: flip one payload byte.
        let newest = dir.file_for_tick(120_000);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, bytes).unwrap();

        let outcome = dir.latest_good().unwrap();
        let (best_path, best) = outcome.best.expect("older good file found");
        assert_eq!(best.meta.tick_ms, 60_000);
        assert_eq!(CheckpointDir::tick_of(&best_path), Some(60_000));
        assert_eq!(outcome.skipped.len(), 1);
        assert!(matches!(
            outcome.skipped[0].error,
            CheckpointError::ChecksumMismatch { .. }
        ));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn latest_good_skips_truncated_file() {
        let root = scratch("trunc");
        let dir = CheckpointDir::create(&root).unwrap();
        ckpt(60_000)
            .write_atomic(&dir.file_for_tick(60_000))
            .unwrap();
        // Simulate a torn non-atomic write at the final name.
        let torn = dir.file_for_tick(120_000);
        let bytes = ckpt(120_000).encode();
        let mut f = fs::File::create(&torn).unwrap();
        f.write_all(&bytes[..bytes.len() / 2]).unwrap();
        drop(f);

        let outcome = dir.latest_good().unwrap();
        assert_eq!(outcome.best.as_ref().unwrap().1.meta.tick_ms, 60_000);
        assert!(matches!(
            outcome.skipped[0].error,
            CheckpointError::Truncated { .. } | CheckpointError::ChecksumMismatch { .. }
        ));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_dir_scans_clean() {
        let root = scratch("empty");
        let dir = CheckpointDir::create(&root).unwrap();
        let outcome = dir.latest_good().unwrap();
        assert!(outcome.best.is_none());
        assert!(outcome.skipped.is_empty());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn prune_keeps_newest() {
        let root = scratch("prune");
        let dir = CheckpointDir::create(&root).unwrap();
        for tick in [1, 2, 3, 4, 5u64] {
            let tick = tick * 60_000;
            ckpt(tick).write_atomic(&dir.file_for_tick(tick)).unwrap();
        }
        let removed = dir.prune(2).unwrap();
        assert_eq!(removed.len(), 3);
        let left: Vec<u64> = dir.list().unwrap().into_iter().map(|(t, _)| t).collect();
        assert_eq!(left, vec![240_000, 300_000]);
        fs::remove_dir_all(&root).ok();
    }
}
