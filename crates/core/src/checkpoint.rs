//! One crash-and-resume policy for every resumable run. [`RunIdentity`]
//! says what a checkpoint belongs to, and its label always ends in the
//! noise kernel. [`Checkpointer`] decides when a snapshot is due, how many
//! are kept, whether and from which snapshot a run resumes, and when an
//! injected crash fails the run ([`Policy`]). `bzctl`'s resumable
//! commands and its sweep runner go through both types, `bz-serve`
//! through [`RunIdentity`]; see `docs/CHECKPOINTS.md` for the guarantees.

use std::fmt;
use std::io;
use std::path::PathBuf;

use bz_simcore::NoiseKernel;
use bz_state::{Checkpoint, CheckpointDir, CheckpointError, CheckpointMeta};
use bz_state::{Reader, StateError, Writer};

/// Checkpoints retained per run directory.
pub const KEEP: usize = 3;

/// What a checkpoint belongs to: the kind of run that wrote it and the
/// canonical label whose CRC-64 gates every restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunIdentity {
    kind: String,
    label: String,
    crc: u64,
}

/// How a stored checkpoint's identity differs from a run's: each variant
/// holds the stored value, then the run's own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// Written by another kind of run: the two kinds.
    Kind(String, String),
    /// The same configuration under another noise kernel: the two kernels.
    Noise(String, String),
    /// Another configuration: the two labels.
    Config(String, String),
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Kind(stored, ours) => write!(
                f,
                "was written by '{stored}' (this is '{ours}'); refusing to resume"
            ),
            Self::Noise(stored, ours) => write!(
                f,
                "was written under noise kernel {stored}, but this run uses {ours}; \
                 set BZ_NOISE={stored} to resume it (see docs/CHECKPOINTS.md)"
            ),
            Self::Config(stored, ours) => write!(
                f,
                "was written under a different configuration ('{stored}', not '{ours}'); \
                 refusing to resume"
            ),
        }
    }
}

impl RunIdentity {
    /// An identity of `kind` whose label is `label` followed by
    /// ` noise=<kernel>`, so no writer can leave the kernel out.
    #[must_use]
    pub fn new(kind: &str, label: &str, noise: NoiseKernel) -> Self {
        let label = format!("{label} noise={noise}");
        let crc = bz_state::crc64::checksum(label.as_bytes());
        Self {
            kind: kind.to_owned(),
            label,
            crc,
        }
    }

    /// The canonical label, ending in `noise=<kernel>`.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// CRC-64 of the label: every envelope's `config_crc`.
    #[must_use]
    pub fn crc(&self) -> u64 {
        self.crc
    }

    /// The kernel named by a label's `noise=` token, if it has one.
    #[must_use]
    pub fn noise_of(label: &str) -> Option<&str> {
        label
            .split_whitespace()
            .find_map(|t| t.strip_prefix("noise="))
    }

    /// The envelope of a snapshot taken at `tick_ms`, its payload written
    /// by `save`.
    #[must_use]
    pub fn seal(&self, tick_ms: u64, save: impl FnOnce(&mut Writer)) -> Checkpoint {
        let mut w = Writer::new();
        save(&mut w);
        let meta = CheckpointMeta {
            kind: self.kind.clone(),
            tick_ms,
            config_crc: self.crc,
            label: self.label.clone(),
        };
        Checkpoint {
            meta,
            payload: w.into_bytes(),
        }
    }

    /// Accepts an envelope header only when this identity sealed it.
    ///
    /// # Errors
    ///
    /// Names the mismatch: another kind, the noise kernel alone, or
    /// another configuration.
    pub fn check(&self, meta: &CheckpointMeta) -> Result<(), Mismatch> {
        let (stored, ours) = (Self::noise_of(&meta.label), Self::noise_of(&self.label));
        if meta.kind != self.kind {
            Err(Mismatch::Kind(meta.kind.clone(), self.kind.clone()))
        } else if meta.config_crc == self.crc {
            Ok(())
        } else if stored == ours || without_noise(&meta.label).ne(without_noise(&self.label)) {
            Err(Mismatch::Config(meta.label.clone(), self.label.clone()))
        } else {
            let name = |noise: Option<&str>| noise.unwrap_or("unrecorded").to_owned();
            Err(Mismatch::Noise(name(stored), name(ours)))
        }
    }
}

/// A label's tokens other than `noise=<kernel>`.
fn without_noise(label: &str) -> impl Iterator<Item = &str> {
    label
        .split_whitespace()
        .filter(|token| !token.starts_with("noise="))
}

/// Why a [`Checkpointer`] operation failed.
#[derive(Debug)]
pub enum CheckpointerError {
    /// The directory could not be created, scanned or pruned: what was
    /// being done, and the I/O error.
    Dir(&'static str, io::Error),
    /// A snapshot could not be written.
    Write(CheckpointError),
    /// The newest good snapshot, at this path, belongs to another run.
    Foreign(PathBuf, Mismatch),
    /// The newest good snapshot, at this path, did not restore.
    Restore(PathBuf, StateError),
    /// The run reached its [`Policy::crash_at_s`] at this simulated time,
    /// ms.
    Crash(u64),
}

impl fmt::Display for CheckpointerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Dir(action, e) => write!(f, "{action}: {e}"),
            Self::Write(e) => write!(f, "checkpoint write failed: {e}"),
            Self::Foreign(path, why) => write!(f, "checkpoint {} {why}", path.display()),
            Self::Restore(path, e) => {
                write!(f, "checkpoint {} failed to restore: {e}", path.display())
            }
            Self::Crash(now_ms) => {
                write!(f, "crash injected at t={}s (--crash-at)", now_ms / 1_000)
            }
        }
    }
}

impl std::error::Error for CheckpointerError {}

/// What a resume scan found and did.
#[derive(Debug, Clone, Default)]
pub struct Resumed {
    /// Simulated time of the restored snapshot; `None` when no usable
    /// snapshot existed and the run starts fresh.
    pub tick_ms: Option<u64>,
    /// One line per corrupt snapshot skipped, plus the outcome.
    pub notes: Vec<String>,
}

/// How a run checkpoints, resumes and crashes: `bzctl`'s
/// `--checkpoint-every`, `--resume` and `--crash-at`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Policy {
    /// Simulated seconds between snapshots; `None` writes none on a
    /// cadence.
    pub every_s: Option<u64>,
    /// Whether [`Checkpointer::resume`] restores the newest good snapshot.
    /// Without it the directory is only written.
    pub resume: bool,
    /// Simulated second at which [`Checkpointer::after_step`] fails the
    /// run, after writing the snapshot due then.
    pub crash_at_s: Option<u64>,
}

/// One run's checkpoint directory under the shared policy.
#[derive(Debug)]
pub struct Checkpointer {
    dir: CheckpointDir,
    id: RunIdentity,
    policy: Policy,
    every_ms: u64,
    next_due_ms: u64,
    /// Tick of the newest snapshot this run wrote or restored.
    newest_ms: Option<u64>,
}

impl Checkpointer {
    /// Creates `dir` if needed and binds it to `id` under `policy`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn create(
        dir: impl Into<PathBuf>,
        id: RunIdentity,
        policy: Policy,
    ) -> Result<Self, CheckpointerError> {
        let dir = CheckpointDir::create(dir)
            .map_err(|e| CheckpointerError::Dir("cannot create checkpoint dir", e))?;
        let every_ms = policy.every_s.map_or(u64::MAX, |s| s.saturating_mul(1_000));
        Ok(Self {
            dir,
            id,
            policy,
            every_ms,
            next_due_ms: every_ms,
            newest_ms: None,
        })
    }

    /// When the policy resumes, restores the newest good snapshot through
    /// `restore`. Corrupt or torn files are noted and skipped, so an
    /// older good snapshot wins over a newer bad one; an empty directory
    /// is a fresh start. Without `resume` nothing is scanned.
    ///
    /// # Errors
    ///
    /// [`CheckpointerError::Foreign`] when another identity sealed the
    /// newest good snapshot; otherwise scan or restore failures, a
    /// payload with bytes left after what `restore` reads included.
    pub fn resume(
        &mut self,
        restore: impl FnOnce(&mut Reader<'_>) -> Result<(), StateError>,
    ) -> Result<Resumed, CheckpointerError> {
        if !self.policy.resume {
            return Ok(Resumed::default());
        }
        let scan = self
            .dir
            .latest_good()
            .map_err(|e| CheckpointerError::Dir("cannot scan checkpoint dir", e))?;
        let mut notes = Vec::new();
        for skipped in &scan.skipped {
            let (path, error) = (skipped.path.display(), &skipped.error);
            notes.push(format!("skipping corrupt checkpoint {path}: {error}"));
        }
        let Some((path, checkpoint)) = scan.best else {
            notes.push("no usable checkpoint found; starting fresh".to_owned());
            return Ok(Resumed {
                tick_ms: None,
                notes,
            });
        };
        if let Err(why) = self.id.check(&checkpoint.meta) {
            return Err(CheckpointerError::Foreign(path, why));
        }
        let mut reader = Reader::new(&checkpoint.payload);
        if let Err(e) = restore(&mut reader).and_then(|()| reader.expect_end("checkpoint payload"))
        {
            return Err(CheckpointerError::Restore(path, e));
        }
        let tick_ms = checkpoint.meta.tick_ms;
        let t_s = tick_ms / 1_000;
        notes.push(format!("resumed from {} at t={t_s}s", path.display()));
        self.next_due_ms = tick_ms.saturating_add(self.every_ms);
        self.newest_ms = Some(tick_ms);
        Ok(Resumed {
            tick_ms: Some(tick_ms),
            notes,
        })
    }

    /// Called after every simulation step: when a snapshot is due, writes
    /// it atomically through `save` and prunes the directory to [`KEEP`];
    /// then fails the run once `now_ms` reaches the policy's crash time.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot cannot be written or the prune fails, and
    /// with [`CheckpointerError::Crash`] at the crash time.
    pub fn after_step(
        &mut self,
        now_ms: u64,
        save: impl FnOnce(&mut Writer),
    ) -> Result<(), CheckpointerError> {
        if now_ms >= self.next_due_ms {
            self.write(now_ms, save)?;
        }
        let crash_at_ms = self.policy.crash_at_s.map(|s| s.saturating_mul(1_000));
        if crash_at_ms.is_some_and(|crash_at_ms| now_ms >= crash_at_ms) {
            return Err(CheckpointerError::Crash(now_ms));
        }
        Ok(())
    }

    /// Called once the run has ended at `now_ms`: writes its final
    /// snapshot unless the newest one is already at `now_ms`, so a resume
    /// of the finished run restores its end and steps nothing.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot cannot be written or the prune fails.
    pub fn finish(
        &mut self,
        now_ms: u64,
        save: impl FnOnce(&mut Writer),
    ) -> Result<(), CheckpointerError> {
        if self.newest_ms == Some(now_ms) {
            return Ok(());
        }
        self.write(now_ms, save)
    }

    fn write(
        &mut self,
        now_ms: u64,
        save: impl FnOnce(&mut Writer),
    ) -> Result<(), CheckpointerError> {
        let snapshot = self.id.seal(now_ms, save);
        let path = self.dir.file_for_tick(now_ms);
        snapshot
            .write_atomic(&path)
            .map_err(CheckpointerError::Write)?;
        self.dir
            .prune(KEEP)
            .map_err(|e| CheckpointerError::Dir("checkpoint prune failed", e))?;
        self.next_due_ms = now_ms.saturating_add(self.every_ms);
        self.newest_ms = Some(now_ms);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bz-core-ckpt-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A one-minute-cadence checkpointer over `root` that resumes.
    fn at(root: &Path, kind: &str, label: &str, noise: NoiseKernel) -> Checkpointer {
        let policy = Policy {
            every_s: Some(60),
            resume: true,
            crash_at_s: None,
        };
        Checkpointer::create(root, RunIdentity::new(kind, label, noise), policy).unwrap()
    }

    #[test]
    fn identities_keep_the_labels_and_crcs_of_earlier_writers() {
        // `bzctl trial --seed 1 --minutes 5` and a serve trial tenant
        // (seed 7, 5 minutes) wrote these before the kernel was appended
        // here; their checkpoints and snapshots must keep resuming.
        let trial = RunIdentity::new("trial", "trial seed=1 minutes=5", NoiseKernel::V2);
        assert_eq!(trial.label(), "trial seed=1 minutes=5 noise=v2");
        assert_eq!(trial.crc(), 0x3f2a_26ff_5508_197b);
        let tenant = RunIdentity::new("serve", "serve trial-s0007 minutes=5", NoiseKernel::V2);
        assert_eq!(tenant.label(), "serve trial-s0007 minutes=5 noise=v2");
        assert_eq!(tenant.crc(), 0xfb11_0682_0fae_414d);
    }

    #[test]
    fn periodic_writes_land_and_prune() {
        let root = scratch("periodic");
        let mut checkpoints = at(&root, "trial", "seed=1", NoiseKernel::V2);
        for minute in 1..=6u64 {
            checkpoints
                .after_step(minute * 60_000, |w| w.put_u64(minute))
                .unwrap();
        }
        let listed = CheckpointDir::open(&root).list().unwrap();
        assert_eq!(listed.len(), KEEP, "retention window enforced");
        assert_eq!(listed.last().unwrap().0, 360_000);
    }

    #[test]
    fn crash_injection_fires_after_the_due_snapshot() {
        let root = scratch("crash");
        let policy = Policy {
            every_s: Some(60),
            crash_at_s: Some(120),
            ..Policy::default()
        };
        let id = RunIdentity::new("trial", "seed=1", NoiseKernel::V2);
        let mut checkpoints = Checkpointer::create(&root, id, policy).unwrap();
        checkpoints.after_step(60_000, |w| w.put_u64(1)).unwrap();
        let err = checkpoints
            .after_step(120_000, |w| w.put_u64(2))
            .unwrap_err();
        assert!(err.to_string().contains("crash injected"), "{err}");
        // The snapshot due at the crash instant was still written.
        let listed = CheckpointDir::open(&root).list().unwrap();
        assert_eq!(listed.last().unwrap().0, 120_000);
    }

    #[test]
    fn a_finished_run_resumes_at_its_end_and_only_a_resume_scans() {
        let root = scratch("finish");
        let mut checkpoints = at(&root, "sweep-run", "trial-s0001 minutes=3", NoiseKernel::V2);
        checkpoints.after_step(120_000, |w| w.put_u64(2)).unwrap();
        checkpoints.finish(150_000, |w| w.put_u64(3)).unwrap();
        let mut resumed = at(&root, "sweep-run", "trial-s0001 minutes=3", NoiseKernel::V2);
        let mut restored = 0;
        let tick_ms = resumed
            .resume(|r| {
                restored = r.take_u64()?;
                Ok(())
            })
            .unwrap()
            .tick_ms;
        assert_eq!((tick_ms, restored), (Some(150_000), 3));
        // The end is already on disk: nothing is rewritten.
        resumed
            .finish(150_000, |_| panic!("rewrote the end"))
            .unwrap();

        let id = RunIdentity::new("sweep-run", "trial-s0001 minutes=3", NoiseKernel::V2);
        let mut write_only = Checkpointer::create(&root, id, Policy::default()).unwrap();
        let fresh = write_only
            .resume(|_| panic!("restored without resume"))
            .unwrap();
        assert_eq!(fresh.tick_ms, None);
        assert!(fresh.notes.is_empty(), "{:?}", fresh.notes);
    }

    #[test]
    fn resume_restores_the_newest_good_and_reports_corruption() {
        let root = scratch("resume");
        let mut checkpoints = at(&root, "trial", "seed=1", NoiseKernel::V2);
        checkpoints.after_step(60_000, |w| w.put_u64(1)).unwrap();
        checkpoints.after_step(120_000, |w| w.put_u64(2)).unwrap();
        // Corrupt the newest file: flip a byte in the middle.
        let newest = CheckpointDir::open(&root).file_for_tick(120_000);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();

        let mut restored = 0;
        let resumed = at(&root, "trial", "seed=1", NoiseKernel::V2)
            .resume(|r| {
                restored = r.take_u64()?;
                Ok(())
            })
            .unwrap();
        assert_eq!(resumed.tick_ms, Some(60_000), "older good snapshot wins");
        assert_eq!(restored, 1);
        assert!(
            resumed.notes.iter().any(|n| n.contains("corrupt")),
            "corruption must be reported: {:?}",
            resumed.notes
        );
    }

    #[test]
    fn resume_refuses_bytes_left_after_the_state() {
        let root = scratch("leftover");
        at(&root, "trial", "seed=1", NoiseKernel::V2)
            .after_step(60_000, |w| {
                w.put_u64(1);
                w.put_u8(0);
            })
            .unwrap();
        let err = at(&root, "trial", "seed=1", NoiseKernel::V2)
            .resume(|r| r.take_u64().map(drop))
            .unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointerError::Restore(_, StateError::Invalid { .. })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("1 byte(s) left"), "{err}");
    }

    #[test]
    fn resume_rejects_checkpoints_from_other_configurations() {
        let root = scratch("identity");
        at(&root, "trial", "seed=1", NoiseKernel::V2)
            .after_step(60_000, |w| w.put_u64(1))
            .unwrap();

        let mut other_seed = at(&root, "trial", "seed=2", NoiseKernel::V2);
        let err = other_seed.resume(|_| Ok(())).unwrap_err();
        assert!(
            err.to_string().contains("different configuration"),
            "unexpected error: {err}"
        );

        let mut other_kind = at(&root, "chaos", "seed=1", NoiseKernel::V2);
        let err = other_kind.resume(|_| Ok(())).unwrap_err();
        assert!(
            err.to_string().contains("refusing to resume"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn noise_only_mismatch_names_both_kernel_versions() {
        let root = scratch("noise");
        at(&root, "trial", "trial seed=1 minutes=5", NoiseKernel::V1)
            .after_step(60_000, |w| w.put_u64(1))
            .unwrap();

        let mut other_noise = at(&root, "trial", "trial seed=1 minutes=5", NoiseKernel::V2);
        let err = other_noise.resume(|_| Ok(())).unwrap_err().to_string();
        assert!(err.contains("noise kernel v1"), "{err}");
        assert!(err.contains("uses v2"), "{err}");
        assert!(err.contains("BZ_NOISE=v1"), "{err}");
        assert!(
            !err.contains("different configuration"),
            "the noise case must replace the generic message: {err}"
        );

        // A mismatch beyond the noise token keeps the generic message.
        let mut other_seed = at(&root, "trial", "trial seed=2 minutes=5", NoiseKernel::V2);
        let err = other_seed.resume(|_| Ok(())).unwrap_err().to_string();
        assert!(err.contains("different configuration"), "{err}");
    }
}
