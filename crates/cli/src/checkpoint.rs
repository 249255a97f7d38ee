//! Crash-safe checkpointing glue shared by the long-running `bzctl`
//! commands.
//!
//! Every resumable command (`trial`, `endurance`, `chaos`, `mpc
//! simulate`) accepts the same flag family:
//!
//! * `--checkpoint-dir DIR` — where snapshots live (required by the rest)
//! * `--checkpoint-every SECS` — simulated seconds between snapshots
//! * `--resume` — restore from the newest *good* snapshot in the dir
//! * `--crash-at SECS` — deterministic crash injection for recovery tests
//!
//! The module owns flag parsing, `--resume`, `--crash-at` and `inspect`;
//! everything else (run identities, the resume scan, the cadence, atomic
//! writes and retention) is the shared [`bz_core::checkpoint`] policy.
//! See `docs/CHECKPOINTS.md` for the on-disk format and guarantees.

use std::fs;
use std::path::PathBuf;

use crate::args::{ArgError, Args};
use bz_core::checkpoint::{Checkpointer, RunIdentity};
use bz_simcore::NoiseKernel;
use bz_state::{Checkpoint, CheckpointDir, Reader, StateError, Writer};

/// The flags this module parses; commands splice them into their
/// `expect_only` lists.
pub const FLAGS: &[&str] = &["checkpoint-dir", "checkpoint-every", "resume", "crash-at"];

/// Parsed checkpoint flags, before binding to a specific command run.
#[derive(Debug, Clone, Default)]
pub struct CheckpointOpts {
    /// Snapshot directory (`--checkpoint-dir`).
    pub dir: Option<PathBuf>,
    /// Simulated seconds between snapshots (`--checkpoint-every`).
    pub every_s: Option<u64>,
    /// Restore from the newest good snapshot (`--resume`).
    pub resume: bool,
    /// Crash (exit nonzero) once simulated time reaches this
    /// (`--crash-at`), *after* any snapshot due at that instant.
    pub crash_at_s: Option<u64>,
}

impl CheckpointOpts {
    /// Extracts and validates the checkpoint flag family.
    ///
    /// # Errors
    ///
    /// Rejects malformed values, a zero cadence, and any of the family
    /// used without `--checkpoint-dir`.
    pub fn from_args(args: &Args) -> Result<Self, ArgError> {
        let dir = args.get("checkpoint-dir")?.map(PathBuf::from);
        let every_s = match args.get_or("checkpoint-every", 0u64)? {
            0 if args.flag("checkpoint-every") => {
                return Err(ArgError::new(
                    "--checkpoint-every must be a positive number of seconds",
                ));
            }
            0 => None,
            s => Some(s),
        };
        let crash_at_s = match args.get_or("crash-at", 0u64)? {
            0 if args.flag("crash-at") => {
                return Err(ArgError::new(
                    "--crash-at must be a positive number of seconds",
                ));
            }
            0 => None,
            s => Some(s),
        };
        let resume = args.flag("resume");
        let opts = Self {
            dir,
            every_s,
            resume,
            crash_at_s,
        };
        if opts.dir.is_none()
            && (opts.every_s.is_some() || opts.resume || opts.crash_at_s.is_some())
        {
            return Err(ArgError::new(
                "--checkpoint-every, --resume, and --crash-at need --checkpoint-dir DIR",
            ));
        }
        Ok(opts)
    }

    /// True when any checkpointing behavior was requested.
    #[must_use]
    pub fn active(&self) -> bool {
        self.dir.is_some()
    }

    /// Binds the options to one command run. `kind` tags the command
    /// ("trial", "chaos", ...); `label` describes everything that shapes
    /// the simulation (seed, duration, scenario). The run's identity is
    /// the label plus the effective noise kernel, and a checkpoint of any
    /// other identity is never restored into this run. Without
    /// `--checkpoint-dir` the result does nothing.
    ///
    /// # Errors
    ///
    /// Fails when the checkpoint directory cannot be created.
    pub fn session(&self, kind: &str, label: &str) -> Result<RunCheckpoints, ArgError> {
        let id = RunIdentity::new(kind, label, NoiseKernel::from_env());
        let checkpointer = self.dir.as_ref().map(|root| {
            Checkpointer::create(root, id, self.every_s).map_err(|e| ArgError::new(e.to_string()))
        });
        Ok(RunCheckpoints {
            checkpointer: checkpointer.transpose()?,
            crash_at_ms: self.crash_at_s.map(|s| s.saturating_mul(1_000)),
            resume: self.resume,
        })
    }
}

/// One command run's checkpoints: the shared [`Checkpointer`], when
/// `--checkpoint-dir` asked for one, plus the CLI's `--resume` and
/// `--crash-at` switches.
#[derive(Debug)]
pub struct RunCheckpoints {
    checkpointer: Option<Checkpointer>,
    crash_at_ms: Option<u64>,
    resume: bool,
}

impl RunCheckpoints {
    /// Under `--resume`, restores the newest good snapshot through
    /// `restore`, appends the scan's notes to `out`, and returns the
    /// restored simulated time (`None` for a fresh start).
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be scanned, when the newest good
    /// snapshot belongs to a different command or configuration, or when
    /// its payload does not decode.
    pub fn resume(
        &mut self,
        out: &mut String,
        restore: impl FnOnce(&mut Reader<'_>) -> Result<(), StateError>,
    ) -> Result<Option<u64>, ArgError> {
        let (Some(checkpointer), true) = (&mut self.checkpointer, self.resume) else {
            return Ok(None);
        };
        let resumed = checkpointer
            .resume(restore)
            .map_err(|e| ArgError::new(e.to_string()))?;
        for note in &resumed.notes {
            *out += &format!("{note}\n");
        }
        Ok(resumed.tick_ms)
    }

    /// Called after every simulation step: writes a snapshot when one is
    /// due and then fires the `--crash-at` injection.
    ///
    /// # Errors
    ///
    /// Fails when a snapshot cannot be written, or — by design — with
    /// the injected-crash error once `now_ms` reaches `--crash-at`.
    pub fn after_step(
        &mut self,
        now_ms: u64,
        save: impl FnOnce(&mut Writer),
    ) -> Result<(), ArgError> {
        if let Some(checkpointer) = &mut self.checkpointer {
            checkpointer
                .after_step(now_ms, save)
                .map_err(|e| ArgError::new(e.to_string()))?;
        }
        if self.crash_at_ms.is_some_and(|crash_at| now_ms >= crash_at) {
            return Err(ArgError::new(format!(
                "crash injected at t={}s (--crash-at)",
                now_ms / 1_000
            )));
        }
        Ok(())
    }
}

/// Renders `bzctl checkpoint inspect` for one file or a directory.
///
/// # Errors
///
/// Fails when the path does not exist or a single file fails to decode
/// (directories report per-file status instead of failing).
pub fn inspect(path: &str) -> Result<String, ArgError> {
    let path = PathBuf::from(path);
    if path.is_dir() {
        let dir = CheckpointDir::open(&path);
        let mut files: Vec<PathBuf> = dir
            .list()
            .map_err(|e| ArgError::new(format!("cannot list {}: {e}", path.display())))?
            .into_iter()
            .map(|(_, file)| file)
            .collect();
        // The serve layer's final checkpoints are named by tenant
        // (`tenant-<name>.bzck`) rather than by tick; fold in every
        // other .bzck file so one inspect covers both layouts.
        let mut extra: Vec<PathBuf> = fs::read_dir(&path)
            .map_err(|e| ArgError::new(format!("cannot list {}: {e}", path.display())))?
            .filter_map(|entry| {
                let file = entry.ok()?.path();
                let is_bzck = file.extension().is_some_and(|ext| ext == "bzck");
                (is_bzck && CheckpointDir::tick_of(&file).is_none()).then_some(file)
            })
            .collect();
        extra.sort();
        files.extend(extra);
        if files.is_empty() {
            return Ok(format!("{}: no checkpoints\n", path.display()));
        }
        let mut out = String::new();
        for file in files {
            match Checkpoint::read(&file) {
                Ok(checkpoint) => out.push_str(&format!(
                    "{}: ok  {}\n",
                    file.display(),
                    describe(&checkpoint)
                )),
                Err(error) => out.push_str(&format!("{}: BAD  {error}\n", file.display())),
            }
        }
        return Ok(out);
    }
    let checkpoint =
        Checkpoint::read(&path).map_err(|e| ArgError::new(format!("{}: {e}", path.display())))?;
    Ok(format!(
        "{}: ok  {}\n",
        path.display(),
        describe(&checkpoint)
    ))
}

fn describe(checkpoint: &Checkpoint) -> String {
    format!(
        "kind={} t={}s noise={} config_crc={:016x} label='{}' payload={} bytes",
        checkpoint.meta.kind,
        checkpoint.meta.tick_ms / 1_000,
        RunIdentity::noise_of(&checkpoint.meta.label).unwrap_or("unrecorded"),
        checkpoint.meta.config_crc,
        checkpoint.meta.label,
        checkpoint.payload.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bz_state::CheckpointMeta;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| (*s).to_owned())).unwrap()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bz-cli-ckpt-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn flags_require_the_directory() {
        for orphan in [
            &["--checkpoint-every", "60"][..],
            &["--resume"][..],
            &["--crash-at", "120"][..],
        ] {
            let err = CheckpointOpts::from_args(&parse(orphan)).unwrap_err();
            assert!(
                err.to_string().contains("--checkpoint-dir"),
                "unexpected error: {err}"
            );
        }
        let opts = CheckpointOpts::from_args(&parse(&[])).unwrap();
        assert!(!opts.active());
    }

    #[test]
    fn zero_cadence_is_rejected() {
        let args = parse(&["--checkpoint-dir", "/tmp/x", "--checkpoint-every", "0"]);
        assert!(CheckpointOpts::from_args(&args).is_err());
    }

    #[test]
    fn inspect_reports_the_noise_kernel_version() {
        let root = scratch("inspect-noise");
        let opts = CheckpointOpts {
            dir: Some(root.clone()),
            every_s: Some(60),
            ..CheckpointOpts::default()
        };
        let mut session = opts.session("trial", "trial seed=9 minutes=5").unwrap();
        session.after_step(60_000, |w| w.put_u64(1)).unwrap();
        let report = inspect(root.to_str().unwrap()).unwrap();
        let noise = format!("noise={}", NoiseKernel::from_env());
        assert!(report.contains(&noise), "{report}");

        // A checkpoint from before identities recorded the kernel.
        let legacy = scratch("inspect-legacy");
        std::fs::create_dir_all(&legacy).unwrap();
        let legacy = CheckpointDir::open(&legacy).file_for_tick(60_000);
        let meta = CheckpointMeta {
            kind: "trial".to_owned(),
            tick_ms: 60_000,
            config_crc: 7,
            label: "seed=9".to_owned(),
        };
        Checkpoint {
            meta,
            payload: vec![1],
        }
        .write_atomic(&legacy)
        .unwrap();
        let report = inspect(legacy.to_str().unwrap()).unwrap();
        assert!(report.contains("noise=unrecorded"), "{report}");
    }

    #[test]
    fn crash_injection_fires_after_the_due_snapshot() {
        let root = scratch("crash");
        let opts = CheckpointOpts {
            dir: Some(root.clone()),
            every_s: Some(60),
            crash_at_s: Some(120),
            ..CheckpointOpts::default()
        };
        let mut session = opts.session("trial", "seed=1").unwrap();
        session.after_step(60_000, |w| w.put_u64(1)).unwrap();
        let err = session.after_step(120_000, |w| w.put_u64(2)).unwrap_err();
        assert!(err.to_string().contains("crash injected"), "{err}");
        // The snapshot due at the crash instant was still written.
        let listed = CheckpointDir::open(&root).list().unwrap();
        assert_eq!(listed.last().unwrap().0, 120_000);
    }

    #[test]
    fn inspect_renders_good_and_bad_files() {
        let root = scratch("inspect");
        let opts = CheckpointOpts {
            dir: Some(root.clone()),
            every_s: Some(60),
            ..CheckpointOpts::default()
        };
        let mut session = opts.session("trial", "seed=9").unwrap();
        session.after_step(60_000, |w| w.put_u64(1)).unwrap();
        session.after_step(120_000, |w| w.put_u64(2)).unwrap();
        let newest = CheckpointDir::open(&root).file_for_tick(120_000);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() - 4]).unwrap();

        let report = inspect(root.to_str().unwrap()).unwrap();
        assert!(report.contains("ok  kind=trial"), "{report}");
        assert!(report.contains("BAD"), "{report}");
        let single = inspect(
            CheckpointDir::open(&root)
                .file_for_tick(60_000)
                .to_str()
                .unwrap(),
        )
        .unwrap();
        assert!(single.contains("t=60s"), "{single}");
        assert!(inspect("/nonexistent/path.bzck").is_err());
    }

    #[test]
    fn inspect_lists_tenant_named_serve_checkpoints() {
        let root = scratch("inspect-serve");
        std::fs::create_dir_all(&root).unwrap();
        let checkpoint = Checkpoint {
            meta: CheckpointMeta {
                kind: "serve".to_owned(),
                tick_ms: 120_000,
                config_crc: 7,
                label: "serve trial-s0007 minutes=5 noise=v2".to_owned(),
            },
            payload: vec![1, 2, 3],
        };
        checkpoint
            .write_atomic(&root.join("tenant-b-001.bzck"))
            .unwrap();
        let report = inspect(root.to_str().unwrap()).unwrap();
        assert!(report.contains("tenant-b-001.bzck"), "{report}");
        assert!(report.contains("kind=serve"), "{report}");
        assert!(report.contains("noise=v2"), "{report}");
    }
}
