//! The on-disk checkpoint envelope.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "BZCK"
//! 4       4     format version (u32 LE)
//! 8       8     meta length M (u64 LE)
//! 16      M     meta (codec bytes of CheckpointMeta)
//! 16+M    8     payload length P (u64 LE)
//! 24+M    P     payload (codec bytes of the checkpointed state)
//! 24+M+P  8     CRC-64/XZ over bytes [0, 24+M+P) (u64 LE)
//! ```
//!
//! Writes are atomic: the bytes go to a `.tmp` sibling first, the file is
//! `fsync`ed, then renamed over the final path (and the directory synced),
//! so a reader can never observe a half-written checkpoint under its
//! final name. Corruption that slips past the filesystem — a flipped bit,
//! a truncated tail, a version from a different build — is caught by the
//! layered validation in [`Checkpoint::decode`] and reported with a
//! diagnostic [`CheckpointError`] naming the failure.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::codec::{Persist, Reader, StateError, Writer};
use crate::crc64;
use crate::persist_struct;

/// First bytes of every checkpoint file.
pub const MAGIC: [u8; 4] = *b"BZCK";

/// Current envelope format version. Bump on any wire-format change; older
/// readers reject newer files with a clear error instead of
/// misinterpreting bytes, and this build reads back to
/// [`OLDEST_READABLE_VERSION`].
///
/// History: 1 — initial release; 2 — `Rng` payloads gained a noise-kernel
/// tag (round-2 noise campaign), so v1 snapshots would misparse and are
/// rejected/skipped instead; 3 — the telemetry registry section names
/// each event's key by id, with delta-coded times and varints. That
/// section's first word tells its two layouts apart, so v2 files still
/// decode.
pub const FORMAT_VERSION: u32 = 3;

/// Oldest envelope format version this build still reads.
pub const OLDEST_READABLE_VERSION: u32 = 2;

/// Self-describing header stored ahead of the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// What kind of run produced this checkpoint (`"trial"`, `"chaos"`,
    /// `"mpc"`, `"endurance"`, `"sweep-run"`, …).
    pub kind: String,
    /// Simulation time of the snapshot, ms since run start.
    pub tick_ms: u64,
    /// CRC-64 of the run configuration's codec bytes. Resume refuses a
    /// checkpoint whose configuration differs from the resuming command's.
    pub config_crc: u64,
    /// Free-form label (scenario name, run label, seed).
    pub label: String,
}

persist_struct!(CheckpointMeta {
    kind,
    tick_ms,
    config_crc,
    label,
});

/// Why a checkpoint file could not be read.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The file involved.
        path: PathBuf,
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The file's format version is outside [`OLDEST_READABLE_VERSION`]
    /// to [`FORMAT_VERSION`].
    VersionMismatch {
        /// The file involved.
        path: PathBuf,
        /// Version recorded in the file.
        found: u32,
        /// Newest version this build understands.
        supported: u32,
    },
    /// The file ends before its declared length (a torn write).
    Truncated {
        /// The file involved.
        path: PathBuf,
        /// Bytes the envelope declared.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The trailing CRC-64 does not match the file contents.
    ChecksumMismatch {
        /// The file involved.
        path: PathBuf,
        /// CRC recorded in the file.
        recorded: u64,
        /// CRC computed over the contents.
        computed: u64,
    },
    /// The meta header or payload failed to decode.
    Decode {
        /// The file involved.
        path: PathBuf,
        /// The codec error.
        source: StateError,
    },
}

impl CheckpointError {
    fn io(path: &Path, source: io::Error) -> Self {
        Self::Io {
            path: path.to_owned(),
            source,
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "{}: {source}", path.display()),
            Self::BadMagic { path, found } => write!(
                f,
                "{}: not a checkpoint file (magic {found:02x?}, expected {MAGIC:02x?})",
                path.display()
            ),
            Self::VersionMismatch {
                path,
                found,
                supported,
            } => write!(
                f,
                "{}: checkpoint format v{found} is not supported (this build reads \
                 v{OLDEST_READABLE_VERSION} to v{supported})",
                path.display()
            ),
            Self::Truncated {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: truncated checkpoint (torn write?): envelope declares {expected} byte(s), \
                 file has {found}",
                path.display()
            ),
            Self::ChecksumMismatch {
                path,
                recorded,
                computed,
            } => write!(
                f,
                "{}: checksum mismatch (recorded {recorded:016x}, computed {computed:016x}) — \
                 the file is corrupt",
                path.display()
            ),
            Self::Decode { path, source } => {
                write!(f, "{}: undecodable checkpoint: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A decoded checkpoint: its header plus the opaque payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The header.
    pub meta: CheckpointMeta,
    /// The codec bytes of the checkpointed state.
    pub payload: Vec<u8>,
}

impl Checkpoint {
    /// Serializes the envelope to its byte representation.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut meta = Writer::new();
        self.meta.save(&mut meta);
        let meta = meta.into_bytes();

        let mut out = Vec::with_capacity(32 + meta.len() + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(meta.len() as u64).to_le_bytes());
        out.extend_from_slice(&meta);
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let crc = crc64::checksum(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Validates and decodes an envelope. `path` is used only for error
    /// reporting.
    ///
    /// # Errors
    ///
    /// Returns the specific [`CheckpointError`] for bad magic, version
    /// mismatch, truncation, checksum mismatch, or undecodable meta.
    /// Declared lengths past the end of the bytes (up to `u64::MAX`) are
    /// truncation, never an arithmetic overflow.
    pub fn decode(path: &Path, bytes: &[u8]) -> Result<Self, CheckpointError> {
        let need = |expected: Option<usize>| -> Result<usize, CheckpointError> {
            match expected {
                Some(expected) if expected <= bytes.len() => Ok(expected),
                _ => Err(CheckpointError::Truncated {
                    path: path.to_owned(),
                    expected: expected.unwrap_or(usize::MAX),
                    found: bytes.len(),
                }),
            }
        };
        // Where a field ends: `extra` bytes past the 8-byte length
        // declared at `at`, or `None` when that overflows.
        let end_of = |at: usize, extra: usize| {
            let declared = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
            usize::try_from(declared).ok()?.checked_add(extra)
        };
        need(Some(16))?;
        if bytes[0..4] != MAGIC {
            return Err(CheckpointError::BadMagic {
                path: path.to_owned(),
                found: bytes[0..4].try_into().expect("4 bytes"),
            });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if !(OLDEST_READABLE_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(CheckpointError::VersionMismatch {
                path: path.to_owned(),
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let payload_start = need(end_of(8, 24))?;
        let total = need(end_of(payload_start - 8, payload_start + 8))?;
        if bytes.len() > total {
            return Err(CheckpointError::Decode {
                path: path.to_owned(),
                source: StateError::Invalid {
                    what: "checkpoint envelope",
                    reason: format!(
                        "{} trailing byte(s) after the declared envelope",
                        bytes.len() - total
                    ),
                },
            });
        }
        let recorded = u64::from_le_bytes(bytes[total - 8..total].try_into().expect("8 bytes"));
        let computed = crc64::checksum(&bytes[..total - 8]);
        if recorded != computed {
            return Err(CheckpointError::ChecksumMismatch {
                path: path.to_owned(),
                recorded,
                computed,
            });
        }
        let mut reader = Reader::new(&bytes[16..payload_start - 8]);
        let meta = CheckpointMeta::load(&mut reader).map_err(|source| CheckpointError::Decode {
            path: path.to_owned(),
            source,
        })?;
        Ok(Self {
            meta,
            payload: bytes[payload_start..total - 8].to_vec(),
        })
    }

    /// Atomically writes the envelope to `path`: temp sibling → `fsync` →
    /// rename → directory sync. A crash at any point leaves either the
    /// previous file (or nothing) at `path`, never a torn checkpoint.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from any step, tagged with the file involved.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.encode();
        let tmp = tmp_sibling(path);
        let mut file = fs::File::create(&tmp).map_err(|e| CheckpointError::io(&tmp, e))?;
        file.write_all(&bytes)
            .map_err(|e| CheckpointError::io(&tmp, e))?;
        file.sync_all().map_err(|e| CheckpointError::io(&tmp, e))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| CheckpointError::io(path, e))?;
        // Persist the rename itself. Failures here are not fatal to the
        // data (the rename is already on the journal on most filesystems)
        // but we surface them anyway.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let dir = fs::File::open(parent).map_err(|e| CheckpointError::io(parent, e))?;
            dir.sync_all().map_err(|e| CheckpointError::io(parent, e))?;
        }
        Ok(())
    }

    /// Reads and validates the envelope at `path`.
    ///
    /// # Errors
    ///
    /// Returns the specific [`CheckpointError`] describing what is wrong
    /// with the file.
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = fs::read(path).map_err(|e| CheckpointError::io(path, e))?;
        Self::decode(path, &bytes)
    }

    /// Serializes the envelope for transmission over a network connection.
    /// The bytes are exactly the on-disk format ([`Checkpoint::encode`]),
    /// so a snapshot downloaded from a server can be written to a file
    /// and inspected or resumed like any local checkpoint.
    #[must_use]
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        self.encode()
    }

    /// Validates and decodes an envelope that arrived over a network
    /// connection; errors carry [`WIRE_PATH`] instead of a file path.
    ///
    /// # Errors
    ///
    /// Exactly the validation layers of [`Checkpoint::decode`]: magic,
    /// format version, truncation, CRC-64, and meta decode.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Self::decode(Path::new(WIRE_PATH), bytes)
    }
}

/// Pseudo-path reported in [`CheckpointError`]s for envelopes that came
/// over the wire rather than from a file.
pub const WIRE_PATH: &str = "(wire)";

/// The temp-file sibling a checkpoint is staged in before the rename.
#[must_use]
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("checkpoint"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            meta: CheckpointMeta {
                kind: "trial".to_owned(),
                tick_ms: 300_000,
                config_crc: 0xABCD,
                label: "trial-s0001".to_owned(),
            },
            payload: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let ckpt = sample();
        let bytes = ckpt.encode();
        let back = Checkpoint::decode(Path::new("x.bzck"), &bytes).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Checkpoint::decode(Path::new("x.bzck"), &bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            assert!(
                Checkpoint::decode(Path::new("x.bzck"), &flipped).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    fn sealed(payload_len: usize, label: &str) -> Vec<u8> {
        Checkpoint {
            meta: CheckpointMeta {
                label: label.to_owned(),
                ..sample().meta
            },
            payload: (0..payload_len).map(|i| i as u8).collect(),
        }
        .to_wire_bytes()
    }

    proptest::proptest! {
        /// The magic and version, then declared lengths (some near
        /// `u64::MAX`) and arbitrary bytes: refused, never a panic.
        #[test]
        fn any_bytes_behind_the_magic_are_refused(
            meta_len in 0u64..64,
            near_max in 0u64..3,
            tail in proptest::collection::vec(0u16..256, 0..96),
        ) {
            let declared = if near_max == 0 { meta_len } else { u64::MAX - meta_len };
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&declared.to_le_bytes());
            bytes.extend(tail.iter().map(|&b| b as u8));
            proptest::prop_assert!(Checkpoint::from_wire_bytes(&bytes).is_err());
            let cut = bytes.len() / 2;
            proptest::prop_assert!(Checkpoint::from_wire_bytes(&bytes[..cut]).is_err());
        }

        #[test]
        fn every_truncation_is_refused(payload_len in 0usize..300, cut in 0usize..400) {
            let bytes = sealed(payload_len, "serve trial-s0007 noise=v2");
            let cut = cut % bytes.len();
            let err = Checkpoint::from_wire_bytes(&bytes[..cut]).unwrap_err();
            proptest::prop_assert!(matches!(err, CheckpointError::Truncated { .. }), "{err}");
        }

        #[test]
        fn every_bit_flip_is_refused(payload_len in 0usize..300, at in 0usize..400, bit in 0u8..8) {
            let mut bytes = sealed(payload_len, "é€");
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
            proptest::prop_assert!(Checkpoint::from_wire_bytes(&bytes).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn version_bump_is_a_clear_error() {
        let mut bytes = sample().encode();
        bytes[4] = (FORMAT_VERSION + 1) as u8;
        // Re-seal the CRC so only the version differs.
        let total = bytes.len();
        let crc = crc64::checksum(&bytes[..total - 8]);
        bytes[total - 8..].copy_from_slice(&crc.to_le_bytes());
        let err = Checkpoint::decode(Path::new("x.bzck"), &bytes).unwrap_err();
        assert!(
            matches!(err, CheckpointError::VersionMismatch { found, .. } if found == FORMAT_VERSION + 1),
            "{err}"
        );
        assert!(err.to_string().contains("not supported"));
    }

    #[test]
    fn format_2_envelopes_still_decode_and_format_1_is_refused() {
        let ckpt = sample();
        for version in [1, OLDEST_READABLE_VERSION] {
            let mut bytes = ckpt.encode();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let total = bytes.len();
            let crc = crc64::checksum(&bytes[..total - 8]);
            bytes[total - 8..].copy_from_slice(&crc.to_le_bytes());
            let decoded = Checkpoint::decode(Path::new("x.bzck"), &bytes);
            if version == 1 {
                let err = decoded.unwrap_err();
                assert!(err.to_string().contains("reads v2 to v3"), "{err}");
            } else {
                assert_eq!(decoded.unwrap(), ckpt);
            }
        }
    }

    #[test]
    fn bad_magic_is_a_clear_error() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        let total = bytes.len();
        let crc = crc64::checksum(&bytes[..total - 8]);
        bytes[total - 8..].copy_from_slice(&crc.to_le_bytes());
        let err = Checkpoint::decode(Path::new("x.bzck"), &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join("bz-state-atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-000000300000.bzck");
        let ckpt = sample();
        ckpt.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::read(&path).unwrap(), ckpt);
        assert!(!tmp_sibling(&path).exists(), "temp file must be gone");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_round_trip_matches_the_disk_format() {
        let ckpt = sample();
        let wire = ckpt.to_wire_bytes();
        assert_eq!(wire, ckpt.encode(), "wire bytes are the disk format");
        assert_eq!(Checkpoint::from_wire_bytes(&wire).unwrap(), ckpt);
        let mut corrupt = wire;
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        let err = Checkpoint::from_wire_bytes(&corrupt).unwrap_err();
        assert!(err.to_string().contains(WIRE_PATH), "{err}");
    }

    #[test]
    fn declared_lengths_near_u64_max_are_truncation() {
        let header = |meta_len: u64| {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&meta_len.to_le_bytes());
            bytes
        };
        let mut huge_meta = header(u64::MAX - 10);
        huge_meta.extend_from_slice(&[0; 32]);
        let mut huge_payload = header(0);
        huge_payload.extend_from_slice(&(u64::MAX - 10).to_le_bytes());
        huge_payload.extend_from_slice(&[0; 32]);
        for bytes in [huge_meta, huge_payload] {
            let err = Checkpoint::decode(Path::new("x.bzck"), &bytes).unwrap_err();
            assert!(matches!(err, CheckpointError::Truncated { .. }), "{err}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode();
        bytes.extend_from_slice(b"junk");
        let err = Checkpoint::decode(Path::new("x.bzck"), &bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
