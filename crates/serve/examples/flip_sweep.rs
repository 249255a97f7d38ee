//! Restore flip sweep: every single-byte flip of a snapshot's system part,
//! and an f64 NaN written at every offset of it, must be refused or step
//! without a panic.
//!
//! A trial tenant (seed 7) is stepped to minute 5 and snapshotted. In a
//! first pass each byte of the system part of the payload (everything
//! before the telemetry registry) is XORed with 0x01, 0x80 and 0xFF in
//! turn; in a second, the eight bytes from each offset are overwritten
//! with a NaN, which reaches every `f64` of the state whatever its
//! alignment. Each copy is restored into a freshly built tenant, which
//! then steps one minute. Each pass counts refusals, steps and panics,
//! and names the first panics and the slowest step.
//!
//! ```sh
//! cargo run --release -p bz-serve --example flip_sweep
//! ```
//!
//! Exits 1 on any panic or any step over 50 ms. `crates/serve/tests/
//! restore_flips.rs` runs a seeded sample of the same cases.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bz_serve::tenants::build_tenant;
use bz_state::Checkpoint;

/// The tenant every case restores into, freshly built each time.
pub const TENANT: &str = "{\"name\":\"flip\",\"scenario\":\"trial\",\"seed\":7,\"minutes\":30}";

/// The masks each byte is XORed with.
pub const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

/// How a case corrupts the snapshot payload at its offset.
#[derive(Debug, Clone, Copy)]
pub enum Change {
    /// XOR the byte with this mask.
    Xor(u8),
    /// Overwrite the eight bytes from the offset with an `f64` NaN.
    Nan,
}

impl std::fmt::Display for Change {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Xor(mask) => write!(f, "XOR {mask:#04x}"),
            Self::Nan => f.write_str("NaN"),
        }
    }
}

/// The longest a restored tenant's one-minute step may take in a
/// release build.
const STEP_LIMIT: Duration = Duration::from_millis(50);

/// What one flipped snapshot did.
#[derive(Debug)]
pub enum Verdict {
    /// The restore was refused.
    Refused,
    /// The restore loaded, and the tenant stepped one minute in this long.
    Stepped(Duration),
    /// The restore or the step panicked: where, and its message.
    Panicked(String, String),
}

/// The location and message of the last panic on this process, set by
/// the hook that [`quiet_panics`] installs.
static LAST_PANIC: Mutex<(String, String)> = Mutex::new((String::new(), String::new()));

/// Replaces the panic hook with one that records the panic's location
/// and message instead of printing them.
pub fn quiet_panics() {
    panic::set_hook(Box::new(|info| {
        let at = info
            .location()
            .map_or_else(String::new, |l| format!("{}:{}", l.file(), l.line()));
        let what = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        *LAST_PANIC.lock().unwrap_or_else(|e| e.into_inner()) = (at, what.to_owned());
    }));
}

/// A trial tenant's minute-5 snapshot, and the length of its payload's
/// system part: the payload less the telemetry registry and the run
/// length that follow it.
#[must_use]
pub fn minute_five_snapshot() -> (Checkpoint, usize) {
    let tenant = build_tenant(TENANT).expect("the sweep's tenant document is valid");
    tenant.step_minutes(5);
    let snapshot = tenant.snapshot();
    let mut registry = bz_state::Writer::new();
    tenant.obs.save_state(&mut registry);
    let system = snapshot.payload.len() - registry.as_bytes().len() - 8;
    (snapshot, system)
}

/// Restores `snapshot` with its payload at `offset` changed by `change`
/// into a fresh tenant, and steps that tenant one minute if the restore
/// loads.
#[must_use]
pub fn run_case(snapshot: &Checkpoint, offset: usize, change: Change) -> Verdict {
    let mut flipped = snapshot.clone();
    match change {
        Change::Xor(mask) => flipped.payload[offset] ^= mask,
        Change::Nan => flipped.payload[offset..offset + 8].copy_from_slice(&f64::NAN.to_le_bytes()),
    }
    let tenant = build_tenant(TENANT).expect("the sweep's tenant document is valid");
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        if tenant.restore(&flipped).is_err() {
            return Verdict::Refused;
        }
        let start = Instant::now();
        tenant.step_minutes(1);
        Verdict::Stepped(start.elapsed())
    }));
    outcome.unwrap_or_else(|_| {
        let (at, what) = LAST_PANIC.lock().unwrap_or_else(|e| e.into_inner()).clone();
        Verdict::Panicked(at, what)
    })
}

/// What one pass of the sweep saw.
#[derive(Default)]
struct Tally {
    refused: u64,
    stepped: u64,
    panicked: u64,
    /// Per panic site: the count, and the first case with its message.
    sites: BTreeMap<String, (u64, usize, String, String)>,
    /// The slowest step and its case.
    slowest: (Duration, usize, String),
}

impl Tally {
    fn add(&mut self, offset: usize, change: Change, verdict: Verdict) {
        match verdict {
            Verdict::Refused => self.refused += 1,
            Verdict::Stepped(took) => {
                self.stepped += 1;
                if took > self.slowest.0 {
                    self.slowest = (took, offset, change.to_string());
                }
            }
            Verdict::Panicked(at, what) => {
                self.panicked += 1;
                let first = (0, offset, change.to_string(), what);
                self.sites.entry(at).or_insert(first).0 += 1;
            }
        }
    }

    /// Prints the pass and returns whether it passed.
    fn report(&self, pass: &str, started: Instant) -> bool {
        println!(
            "{pass}: {} cases in {:.1} s: {} refused, {} stepped, {} panicked",
            self.refused + self.stepped + self.panicked,
            started.elapsed().as_secs_f64(),
            self.refused,
            self.stepped,
            self.panicked,
        );
        println!(
            "  slowest step {:.2} ms (byte {} {}), limit {} ms",
            self.slowest.0.as_secs_f64() * 1e3,
            self.slowest.1,
            self.slowest.2,
            STEP_LIMIT.as_millis()
        );
        for (at, (count, offset, change, what)) in &self.sites {
            let what: String = what.chars().take(160).collect();
            println!("  {count} panic(s) at {at}, first byte {offset} {change}: {what}");
        }
        self.panicked == 0 && self.slowest.0 <= STEP_LIMIT
    }
}

fn main() {
    quiet_panics();
    let (snapshot, system) = minute_five_snapshot();
    println!(
        "flip sweep: {system} system bytes of a {}-byte payload, masks {MASKS:02x?}, then NaN",
        snapshot.payload.len()
    );
    let started = Instant::now();
    let mut flips = Tally::default();
    for offset in 0..system {
        for mask in MASKS {
            let change = Change::Xor(mask);
            flips.add(offset, change, run_case(&snapshot, offset, change));
        }
    }
    let flipped = flips.report("byte flips", started);
    let started = Instant::now();
    let mut nans = Tally::default();
    for offset in 0..system - 7 {
        nans.add(
            offset,
            Change::Nan,
            run_case(&snapshot, offset, Change::Nan),
        );
    }
    let nan = nans.report("NaN at every offset", started);
    if !(flipped && nan) {
        std::process::exit(1);
    }
}
