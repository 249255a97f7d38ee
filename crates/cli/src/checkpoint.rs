//! Crash-safe checkpointing glue shared by the long-running `bzctl`
//! commands.
//!
//! Every resumable command (`trial`, `endurance`, `chaos`, `mpc
//! simulate`, `sweep`) accepts the same flag family:
//!
//! * `--checkpoint-dir DIR` — where snapshots live (required by the rest)
//! * `--checkpoint-every SECS` — simulated seconds between snapshots
//! * `--resume` — restore from the newest *good* snapshot in the dir
//! * `--crash-at SECS` — deterministic crash injection for recovery tests
//!
//! The module parses the flags, runs a command's session to its end, and
//! renders `inspect`; what the flags do (run identities, the resume scan,
//! the cadence, the injected crash, atomic writes and retention) is the
//! shared [`bz_core::checkpoint`] policy, and its [`drive`] steps the run.
//! See `docs/CHECKPOINTS.md` for the on-disk format and guarantees.

use std::fs;
use std::path::PathBuf;

use crate::args::{ArgError, Args};
use bz_core::checkpoint::{drive, Checkpointer, CheckpointerError, Policy, RunIdentity};
use bz_core::session::Session;
use bz_simcore::NoiseKernel;
use bz_state::{Checkpoint, CheckpointDir};

/// The flags this module parses; commands splice them into their
/// `expect_only` lists.
pub const FLAGS: &[&str] = &["checkpoint-dir", "checkpoint-every", "resume", "crash-at"];

/// Parsed checkpoint flags, before binding to a specific command run.
#[derive(Debug, Clone, Default)]
pub struct CheckpointOpts {
    /// Snapshot directory (`--checkpoint-dir`).
    pub dir: Option<PathBuf>,
    /// `--checkpoint-every`, `--resume` and `--crash-at`.
    pub policy: Policy,
}

impl CheckpointOpts {
    /// Extracts and validates the checkpoint flag family.
    ///
    /// # Errors
    ///
    /// Rejects malformed values, a zero cadence or crash time, and any of
    /// the family used without `--checkpoint-dir`.
    pub fn from_args(args: &Args) -> Result<Self, ArgError> {
        let seconds = |name: &str| match args.get_or(name, 0u64)? {
            0 if args.flag(name) => Err(ArgError::new(format!(
                "--{name} must be a positive number of seconds"
            ))),
            0 => Ok(None),
            s => Ok(Some(s)),
        };
        let opts = Self {
            dir: args.get("checkpoint-dir")?.map(PathBuf::from),
            policy: Policy {
                every_s: seconds("checkpoint-every")?,
                resume: args.flag("resume"),
                crash_at_s: seconds("crash-at")?,
            },
        };
        if opts.dir.is_none() && opts.policy != Policy::default() {
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
    /// other identity is never restored into this run. `None` without
    /// `--checkpoint-dir`.
    ///
    /// # Errors
    ///
    /// Fails when the checkpoint directory cannot be created.
    pub fn checkpointer(&self, kind: &str, label: &str) -> Result<Option<Checkpointer>, ArgError> {
        let id = RunIdentity::new(kind, label, NoiseKernel::from_env());
        self.dir
            .as_ref()
            .map(|root| Checkpointer::create(root, id, self.policy))
            .transpose()
            .map_err(arg_error)
    }
}

/// Runs a command's session to its end: resumes it first as the policy
/// says, appending the scan's notes to `out`, then [`drive`]s it.
///
/// # Errors
///
/// Every checkpoint failure as a usage error: a scan or restore failure,
/// a snapshot of another command or configuration, a failed write, and
/// by design the injected crash at `--crash-at`.
pub fn run_to_end(
    run: &mut dyn Session,
    mut checkpoints: Option<Checkpointer>,
    out: &mut String,
) -> Result<(), ArgError> {
    if let Some(checkpoints) = &mut checkpoints {
        let resumed = checkpoints
            .resume(|r| run.load_state(r))
            .map_err(arg_error)?;
        for note in &resumed.notes {
            *out += &format!("{note}\n");
        }
    }
    drive(run, checkpoints.as_mut()).map_err(arg_error)
}

fn arg_error(e: CheckpointerError) -> ArgError {
    ArgError::new(e.to_string())
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
            policy: Policy {
                every_s: Some(60),
                ..Policy::default()
            },
        };
        let mut checkpoints = opts
            .checkpointer("trial", "trial seed=9 minutes=5")
            .unwrap();
        let checkpoints = checkpoints.as_mut().unwrap();
        checkpoints.after_step(60_000, |w| w.put_u64(1)).unwrap();
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
    fn inspect_renders_good_and_bad_files() {
        let root = scratch("inspect");
        let opts = CheckpointOpts {
            dir: Some(root.clone()),
            policy: Policy {
                every_s: Some(60),
                ..Policy::default()
            },
        };
        let mut checkpoints = opts.checkpointer("trial", "seed=9").unwrap();
        let checkpoints = checkpoints.as_mut().unwrap();
        checkpoints.after_step(60_000, |w| w.put_u64(1)).unwrap();
        checkpoints.after_step(120_000, |w| w.put_u64(2)).unwrap();
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
