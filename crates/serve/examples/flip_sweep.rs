//! Restore flip sweep: every single-byte flip of a snapshot's system part
//! must be refused or step without a panic.
//!
//! A trial tenant (seed 7) is stepped to minute 5 and snapshotted. Each
//! byte of the system part of the payload (everything before the
//! telemetry registry) is XORed with 0x01, 0x80 and 0xFF in turn. Each
//! copy is restored into a freshly built tenant, which then steps one
//! minute. The sweep counts refusals, steps and panics, and names the
//! first panics and the slowest step.
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

/// Restores `snapshot` with byte `offset` of its payload XORed with
/// `mask` into a fresh tenant, and steps that tenant one minute if the
/// restore loads.
#[must_use]
pub fn run_case(snapshot: &Checkpoint, offset: usize, mask: u8) -> Verdict {
    let mut flipped = snapshot.clone();
    flipped.payload[offset] ^= mask;
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

fn main() {
    quiet_panics();
    let (snapshot, system) = minute_five_snapshot();
    println!(
        "flip sweep: {system} system bytes of a {}-byte payload, masks {MASKS:02x?}",
        snapshot.payload.len()
    );
    let started = Instant::now();
    let (mut refused, mut stepped, mut panicked) = (0u64, 0u64, 0u64);
    // Per panic site: the count, and the first case with its message.
    let mut sites: BTreeMap<String, (u64, usize, u8, String)> = BTreeMap::new();
    let mut slowest = (Duration::ZERO, 0, 0);
    for offset in 0..system {
        for mask in MASKS {
            match run_case(&snapshot, offset, mask) {
                Verdict::Refused => refused += 1,
                Verdict::Stepped(took) => {
                    stepped += 1;
                    if took > slowest.0 {
                        slowest = (took, offset, mask);
                    }
                }
                Verdict::Panicked(at, what) => {
                    panicked += 1;
                    sites.entry(at).or_insert((0, offset, mask, what)).0 += 1;
                }
            }
        }
    }
    println!(
        "{} cases in {:.1} s: {refused} refused, {stepped} stepped, {panicked} panicked",
        system * MASKS.len(),
        started.elapsed().as_secs_f64(),
    );
    println!(
        "slowest step {:.2} ms (byte {} XOR {:#04x}), limit {} ms",
        slowest.0.as_secs_f64() * 1e3,
        slowest.1,
        slowest.2,
        STEP_LIMIT.as_millis()
    );
    for (at, (count, offset, mask, what)) in &sites {
        let what: String = what.chars().take(160).collect();
        println!("  {count} panic(s) at {at}, first byte {offset} XOR {mask:#04x}: {what}");
    }
    if panicked > 0 || slowest.0 > STEP_LIMIT {
        std::process::exit(1);
    }
}
