//! Tenant lifecycle: parsing create requests, the per-tenant simulation
//! session, and the sharded registry the worker threads go through.
//!
//! One tenant is one independent simulated building. Three scenario
//! families are hosted, each behind the same [`Session`] trait:
//!
//! * `trial` / `network` / `endurance` — the sweep scenarios, built with
//!   the exact construction recipe of `bzctl trial` and `bzctl sweep`
//!   ([`bz_bench::sweep::build_system`]) and driven through
//!   [`bz_core::session::TenantSession`];
//! * `chaos` — a fault-injection run from the `bzctl chaos` scenario
//!   JSON ([`ChaosScenario::from_json`]);
//! * `mpc` — a strategy run from the `bzctl mpc` scenario JSON
//!   ([`MpcScenario::from_json`]), reactive or MPC-controlled.
//!
//! Every tenant records into its own isolated [`bz_obs::Handle`], so
//! concurrent tenants share no mutable metric state and each tenant's
//! JSONL export is byte-identical to the same scenario run offline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use bz_bench::sweep::{self, RunSpec};
use bz_core::chaos::ChaosScenario;
use bz_core::checkpoint::{Mismatch, RunIdentity};
use bz_core::json::{Json, MAX_WHOLE};
use bz_core::session::{Session, SetpointReadback, TenantSession};
use bz_predict::compare::begin_strategy;
use bz_predict::MpcScenario;
use bz_simcore::NoiseKernel;

/// Checkpoint `kind` tag of every serve-side snapshot (wire downloads and
/// the graceful-shutdown final checkpoints).
pub const CHECKPOINT_KIND: &str = "serve";

/// Shards of the tenant map. Requests for different tenants contend only
/// on their shard's read lock, never on one global map lock.
const SHARD_COUNT: usize = 64;

/// A failed tenant-create request, with the HTTP status it maps to.
#[derive(Debug)]
pub struct CreateError {
    /// Suggested HTTP status (400 for malformed specs, 409 for clashes).
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

impl CreateError {
    fn bad(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }
}

/// One hosted tenant. The simulation lives behind a `Mutex` — every
/// stepping or snapshot operation is exclusive per tenant — while the
/// metadata and the admission counter are lock-free reads.
pub struct Tenant {
    /// Tenant name (unique across the registry).
    pub name: String,
    /// Scenario family label (`trial`, `network`, `endurance`, `chaos`,
    /// `mpc`).
    pub scenario: String,
    /// Everything that shapes the simulation (scenario, seed, duration,
    /// grid point, noise-kernel version). Its CRC-64 gates snapshot
    /// restore.
    pub id: RunIdentity,
    /// Scenario duration, minutes.
    pub total_minutes: u64,
    /// The tenant's isolated metrics handle.
    pub obs: bz_obs::Handle,
    session: Mutex<Box<dyn Session + Send>>,
    inflight: AtomicU32,
    /// Requests shed on this tenant by the admission bound.
    pub shed: AtomicU64,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// RAII admission permit: holding one counts against the tenant's
/// bounded in-flight budget; dropping it releases the slot.
pub struct Permit<'a> {
    tenant: &'a Tenant,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Tenant {
    /// Tries to admit one request under the per-tenant in-flight bound.
    /// `None` means the tenant's queue is full and the request must be
    /// shed with a 429 (the shed counter is already incremented).
    pub fn admit(&self, max_inflight: u32) -> Option<Permit<'_>> {
        let prior = self.inflight.fetch_add(1, Ordering::AcqRel);
        if prior >= max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(Permit { tenant: self })
    }

    /// Runs `f` with exclusive access to the tenant's simulation.
    fn with_session<T>(&self, f: impl FnOnce(&mut dyn Session) -> T) -> T {
        let mut guard = match self.session.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(guard.as_mut())
    }

    /// Simulated milliseconds completed and whether the scenario has
    /// fully run, read together under one lock.
    #[must_use]
    pub fn progress(&self) -> (u64, bool) {
        self.with_session(|s| (s.now_ms(), s.is_done()))
    }

    /// Advances up to `minutes` simulated minutes (stopping early at the
    /// scenario end) and returns how many were actually stepped.
    pub fn step_minutes(&self, minutes: u64) -> u64 {
        self.with_session(|s| s.step_minutes(minutes))
    }

    /// Advances until simulated minute `target` (clamped to the scenario
    /// end) and returns how many minutes were stepped.
    pub fn advance_to_minute(&self, target: u64) -> u64 {
        self.with_session(|s| s.step_minutes(target.saturating_sub(s.now_ms() / 60_000)))
    }

    /// Records one externally observed sensor reading into the tenant's
    /// registry (gauge `ingest.<name>` at the current simulated time) and
    /// returns that time. Ingest is telemetry-only: it never perturbs the
    /// control loop, so the tenant stays byte-identical to the offline
    /// run given the same observations at the same simulated instants.
    pub fn ingest(&self, name: &str, value: f64) -> u64 {
        self.with_session(|s| {
            let now_ms = s.now_ms();
            self.obs.gauge_set(format!("ingest.{name}"), now_ms, value);
            now_ms
        })
    }

    /// The setpoint/actuation readback, for scenario families that
    /// expose one (the sweep family; chaos and mpc report status only).
    #[must_use]
    pub fn readback(&self) -> Option<SetpointReadback> {
        self.with_session(|s| s.readback())
    }

    /// The tenant's full metrics export (buffered events + totals tail),
    /// byte-identical to the offline run of the same scenario.
    #[must_use]
    pub fn metrics_jsonl(&self) -> Vec<u8> {
        // Hold the session lock so the export cannot interleave with a
        // concurrent step on the same tenant.
        self.with_session(|_| {
            let mut bytes = Vec::new();
            self.obs
                .write_jsonl(&mut bytes)
                .expect("writing to a Vec cannot fail");
            bytes
        })
    }

    /// Incremental telemetry tap: buffered event lines from cursor
    /// `from`, plus the new cursor.
    #[must_use]
    pub fn telemetry_from(&self, from: usize) -> (Vec<u8>, usize) {
        self.with_session(|_| {
            let mut bytes = Vec::new();
            let next = self
                .obs
                .write_events_from(from, &mut bytes)
                .expect("writing to a Vec cannot fail");
            (bytes, next)
        })
    }

    /// Serializes the tenant into a BZCK checkpoint envelope stamped
    /// with its config identity.
    #[must_use]
    pub fn snapshot(&self) -> bz_state::Checkpoint {
        self.with_session(|s| self.id.seal(s.now_ms(), |w| s.save_state(w)))
    }

    /// Restores the tenant from a checkpoint envelope and returns the
    /// restored simulated milliseconds, read under the same lock. The
    /// envelope's config identity must match this tenant's — a snapshot
    /// of a different scenario, seed, duration, or noise-kernel version
    /// is refused, naming both identities.
    ///
    /// # Errors
    ///
    /// Returns a message (and implied 409) for identity mismatches and
    /// for payloads that do not decode or leave bytes after the state; a
    /// refused restore leaves the tenant as it was.
    pub fn restore(&self, checkpoint: &bz_state::Checkpoint) -> Result<u64, String> {
        self.id.check(&checkpoint.meta).map_err(|why| match why {
            Mismatch::Kind(stored, _) => format!(
                "checkpoint was written by '{stored}', not the serve layer; refusing to restore"
            ),
            Mismatch::Noise(..) | Mismatch::Config(..) => format!(
                "checkpoint was taken under a different configuration ('{}', this tenant is \
                 '{}'); refusing to restore",
                checkpoint.meta.label,
                self.id.label()
            ),
        })?;
        self.with_session(|s| {
            // A payload can pass the CRC and identity checks and still
            // fail to decode partway, after loading over part of the live
            // state. Keep a save to put the tenant back as it was.
            let mut live = bz_state::Writer::new();
            s.save_state(&mut live);
            let mut reader = bz_state::Reader::new(&checkpoint.payload);
            if let Err(e) = s
                .load_state(&mut reader)
                .and_then(|()| reader.expect_end("snapshot payload"))
            {
                s.load_state(&mut bz_state::Reader::new(live.as_bytes()))
                    .expect("a session reloads its own save");
                return Err(format!("snapshot failed to restore: {e}"));
            }
            Ok(s.now_ms())
        })
    }
}

/// Parses and builds a tenant from a create-request JSON document.
///
/// The document names the tenant and scenario family and carries the
/// scenario parameters inline:
///
/// ```json
/// {"name": "b-001", "scenario": "trial", "seed": 7, "minutes": 105}
/// {"name": "g-001", "scenario": "trial", "seed": 7, "minutes": 10,
///  "grid": "dew-margin-k=0.5"}
/// {"name": "c-001", "scenario": "chaos", "bundled": true}
/// {"name": "m-001", "scenario": "mpc", "strategy": "mpc", "bundled": true}
/// ```
///
/// For `chaos` and `mpc` without `"bundled": true`, the same document is
/// handed to the `bzctl chaos` / `bzctl mpc` scenario parsers, so every
/// field those scenario files support works here unchanged.
///
/// # Errors
///
/// Returns a [`CreateError`] (status 400) for malformed documents.
pub fn build_tenant(body: &str) -> Result<Tenant, CreateError> {
    let root = Json::parse(body).map_err(|e| CreateError::bad(e.to_string()))?;
    let name = root
        .field("name")
        .and_then(Json::as_str)
        .ok_or_else(|| CreateError::bad("missing string field 'name'"))?
        .to_owned();
    if name.is_empty()
        || name.len() > 128
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(CreateError::bad(
            "'name' must be 1-128 chars of [A-Za-z0-9._-]",
        ));
    }
    let scenario = root
        .field("scenario")
        .and_then(Json::as_str)
        .unwrap_or("trial");
    let noise = NoiseKernel::from_env();
    let integer = |field: &str, default: u64| -> Result<u64, CreateError> {
        root.field(field).map_or(Ok(default), |v| {
            v.whole(field, MAX_WHOLE)
                .map_err(|e| CreateError::bad(e.to_string()))
        })
    };

    match scenario {
        "trial" | "network" | "endurance" => {
            let seed = integer("seed", 0x5EED_0001)?;
            let minutes = integer("minutes", 105)?;
            if minutes == 0 {
                return Err(CreateError::bad("'minutes' must be positive"));
            }
            let grid = match root.field("grid") {
                Some(v) => {
                    let spec = v
                        .as_str()
                        .ok_or_else(|| CreateError::bad("'grid' must be a string"))?;
                    let points = sweep::parse_grid(spec).map_err(CreateError::bad)?;
                    if points.len() != 1 {
                        return Err(CreateError::bad(
                            "'grid' must name exactly one point (single values per axis)",
                        ));
                    }
                    points.into_iter().next().expect("one point")
                }
                None => Vec::new(),
            };
            let spec = RunSpec {
                index: 0,
                scenario: sweep::Scenario::parse(scenario).map_err(CreateError::bad)?,
                seed,
                minutes,
                params: grid,
            };
            let obs = bz_obs::Handle::isolated();
            let system = sweep::build_system(&spec, obs.clone()).map_err(CreateError::bad)?;
            let label = format!("serve {} minutes={minutes}", spec.label());
            Ok(tenant(
                name,
                scenario,
                RunIdentity::new(CHECKPOINT_KIND, &label, noise),
                minutes,
                obs.clone(),
                Box::new(TenantSession::new(system, obs, minutes)),
            ))
        }
        "chaos" => {
            let scenario_cfg = if is_bundled(&root) {
                ChaosScenario::bundled_basic()
            } else {
                ChaosScenario::from_json(body).map_err(|e| CreateError::bad(e.to_string()))?
            };
            let minutes = scenario_cfg.duration.as_millis() / 60_000;
            let label = format!(
                "serve chaos {} seed={} minutes={minutes}",
                scenario_cfg.name, scenario_cfg.seed
            );
            let id = RunIdentity::new(CHECKPOINT_KIND, &label, noise);
            let obs = bz_obs::Handle::isolated();
            let run = scenario_cfg.begin_with_obs(obs.clone());
            Ok(tenant(name, "chaos", id, minutes, obs, Box::new(run)))
        }
        "mpc" => {
            let scenario_cfg = if is_bundled(&root) {
                MpcScenario::bundled_office()
            } else {
                MpcScenario::from_json(body).map_err(|e| CreateError::bad(e.to_string()))?
            };
            let strategy = root
                .field("strategy")
                .and_then(Json::as_str)
                .unwrap_or("mpc");
            let mpc = match strategy {
                "mpc" => Some(bz_predict::MpcConfig::office()),
                "reactive" => None,
                other => {
                    return Err(CreateError::bad(format!(
                        "'strategy' must be mpc or reactive, not '{other}'"
                    )))
                }
            };
            let minutes = scenario_cfg.duration.as_millis() / 60_000;
            let label = format!(
                "serve mpc {} seed={} minutes={minutes} strategy={strategy}",
                scenario_cfg.name, scenario_cfg.seed
            );
            let id = RunIdentity::new(CHECKPOINT_KIND, &label, noise);
            let session = begin_strategy(&scenario_cfg, mpc);
            let obs = session.obs().clone();
            Ok(tenant(name, "mpc", id, minutes, obs, Box::new(session)))
        }
        other => Err(CreateError::bad(format!(
            "unknown scenario '{other}' (expected trial, network, endurance, chaos, or mpc)"
        ))),
    }
}

fn is_bundled(root: &Json) -> bool {
    matches!(root.field("bundled"), Some(Json::Bool(true)))
}

fn tenant(
    name: String,
    scenario: &str,
    id: RunIdentity,
    total_minutes: u64,
    obs: bz_obs::Handle,
    session: Box<dyn Session + Send>,
) -> Tenant {
    Tenant {
        name,
        scenario: scenario.to_owned(),
        id,
        total_minutes,
        obs,
        session: Mutex::new(session),
        inflight: AtomicU32::new(0),
        shed: AtomicU64::new(0),
    }
}

/// The sharded tenant map. Lookups take one shard's read lock;
/// create/delete take that shard's write lock. The total count is
/// maintained separately so `/stats` never sweeps the shards.
pub struct Registry {
    shards: Vec<RwLock<HashMap<String, Arc<Tenant>>>>,
    count: AtomicUsize,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            count: AtomicUsize::new(0),
        }
    }

    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Arc<Tenant>>> {
        // FNV-1a over the name; any stable spread works.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(hash as usize) % SHARD_COUNT]
    }

    /// Inserts a tenant. Fails (with the existing tenant left in place)
    /// when the name is taken.
    ///
    /// # Errors
    ///
    /// Returns a 409-flavored [`CreateError`] on a name clash.
    pub fn insert(&self, tenant: Tenant) -> Result<Arc<Tenant>, CreateError> {
        let shard = self.shard(&tenant.name);
        let mut guard = shard
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if guard.contains_key(&tenant.name) {
            return Err(CreateError {
                status: 409,
                message: format!("tenant '{}' already exists", tenant.name),
            });
        }
        let tenant = Arc::new(tenant);
        guard.insert(tenant.name.clone(), Arc::clone(&tenant));
        self.count.fetch_add(1, Ordering::AcqRel);
        Ok(tenant)
    }

    /// Looks a tenant up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.shard(name)
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Removes a tenant by name, returning it if it existed.
    pub fn remove(&self, name: &str) -> Option<Arc<Tenant>> {
        let removed = self
            .shard(name)
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(name);
        if removed.is_some() {
            self.count.fetch_sub(1, Ordering::AcqRel);
        }
        removed
    }

    /// Number of live tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// True when no tenants are hosted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live tenant, sorted by name (the order final checkpoints
    /// are written in, so shutdown output is deterministic).
    #[must_use]
    pub fn all(&self) -> Vec<Arc<Tenant>> {
        let mut tenants: Vec<Arc<Tenant>> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .values()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        tenants
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial_tenant(name: &str, seed: u64, minutes: u64) -> Tenant {
        build_tenant(&format!(
            "{{\"name\":\"{name}\",\"scenario\":\"trial\",\"seed\":{seed},\"minutes\":{minutes}}}"
        ))
        .unwrap()
    }

    #[test]
    fn create_validates_names_and_scenarios() {
        for bad in [
            "{}",
            "{\"name\":\"\"}",
            "{\"name\":\"a b\"}",
            "{\"name\":\"x\",\"scenario\":\"nope\"}",
            "{\"name\":\"x\",\"minutes\":0}",
            "{\"name\":\"x\",\"grid\":\"dew-margin-k=0.1,0.2\"}",
            "{\"name\":\"x\",\"seed\":9007199254740993}",
            "{\"name\":\"x\",\"minutes\":1e300}",
        ] {
            let err = build_tenant(bad).unwrap_err();
            assert_eq!(err.status, 400, "{bad}: {}", err.message);
        }
    }

    #[test]
    fn create_refuses_schedules_past_the_cap() {
        // One entry past `MAX_SCHEDULE_ENTRIES` each: 100,001 disturbance
        // events, 12,501 occupancy periods of 8 changes, 100,001 mpc
        // periods; then the first minutes whose milliseconds overflow.
        for doc in [
            r#"{"name":"e","scenario":"endurance","minutes":3000028}"#,
            r#"{"name":"o","scenario":"trial","minutes":1125001,"grid":"occupancy-rate=0.5"}"#,
            r#"{"name":"m","scenario":"mpc","seed":1,"duration_min":100001,"period_s":60,"windows":[]}"#,
            r#"{"name":"x","scenario":"endurance","minutes":307445734561826}"#,
        ] {
            let err = build_tenant(doc)
                .err()
                .unwrap_or_else(|| panic!("{doc} built"));
            assert_eq!(err.status, 400, "{doc}: {}", err.message);
            assert!(
                err.message.contains("schedule cap") || err.message.contains("overflow"),
                "{}",
                err.message
            );
        }
        for doc in [
            r#"{"name":"e","scenario":"endurance","minutes":3000027}"#,
            r#"{"name":"o","scenario":"trial","minutes":1125000,"grid":"occupancy-rate=0.5"}"#,
            r#"{"name":"t","scenario":"trial","minutes":1000000}"#,
        ] {
            assert!(build_tenant(doc).is_ok(), "{doc}");
        }
    }

    #[test]
    fn wire_identity_embeds_everything_that_shapes_the_run() {
        let a = trial_tenant("a", 7, 10);
        let b = trial_tenant("b", 8, 10);
        let c = trial_tenant("c", 7, 11);
        assert_ne!(a.id.crc(), b.id.crc(), "seed is part of the identity");
        assert_ne!(a.id.crc(), c.id.crc(), "duration is part of the identity");
        assert!(a.id.label().contains("noise="), "noise version is recorded");
    }

    #[test]
    fn stepped_tenant_exports_the_offline_bytes() {
        let tenant = trial_tenant("t", 7, 3);
        assert_eq!(tenant.step_minutes(99), 3, "clamped at the scenario end");
        assert_eq!(tenant.progress(), (180_000, true));
        let offline = sweep::run_one(&RunSpec {
            index: 0,
            scenario: sweep::Scenario::Trial,
            seed: 7,
            minutes: 3,
            params: Vec::new(),
        })
        .unwrap();
        assert_eq!(tenant.metrics_jsonl(), offline.metrics_jsonl);
    }

    #[test]
    fn snapshot_restore_round_trips_into_identical_continuation() {
        for body in [
            "{\"name\":\"t\",\"scenario\":\"trial\",\"seed\":9,\"minutes\":5}",
            "{\"name\":\"c\",\"scenario\":\"chaos\",\"bundled\":true}",
            "{\"name\":\"m\",\"scenario\":\"mpc\",\"strategy\":\"mpc\",\"bundled\":true}",
        ] {
            let source = build_tenant(body).unwrap();
            source.step_minutes(2);
            let snapshot = source.snapshot();
            assert_eq!(snapshot.meta.kind, CHECKPOINT_KIND);
            assert_eq!(snapshot.meta.tick_ms, 120_000);

            let target = build_tenant(body).unwrap();
            assert_eq!(target.restore(&snapshot), Ok(120_000), "{body}");
            source.step_minutes(3);
            target.step_minutes(3);
            assert_eq!(target.progress(), source.progress(), "{body}");
            assert_eq!(target.progress().0, 300_000, "{body}");
            assert_eq!(target.metrics_jsonl(), source.metrics_jsonl(), "{body}");
        }
    }

    #[test]
    fn restore_refuses_foreign_identities() {
        let source = trial_tenant("s", 9, 4);
        let snapshot = source.snapshot();
        let other_seed = trial_tenant("o", 10, 4);
        let err = other_seed.restore(&snapshot).unwrap_err();
        assert!(err.contains("different configuration"), "{err}");
        assert!(err.contains("s0009"), "names the stored identity: {err}");

        let mut foreign = snapshot.clone();
        foreign.meta.kind = "trial".to_owned();
        let err = source.restore(&foreign).unwrap_err();
        assert!(err.contains("not the serve layer"), "{err}");
    }

    #[test]
    fn a_refused_restore_leaves_the_tenant_unchanged() {
        let tenant = trial_tenant("t", 9, 6);
        tenant.step_minutes(2);
        let snapshot = tenant.snapshot();
        tenant.step_minutes(2);
        let twin = trial_tenant("t", 9, 6);
        twin.step_minutes(4);

        // Cut the payload in half, or append one byte, and re-seal it, so
        // the CRC still holds and only the decoder can refuse it.
        let mut torn = snapshot.clone();
        torn.payload.truncate(torn.payload.len() / 2);
        let mut padded = snapshot;
        padded.payload.push(0);
        for (bad, why) in [
            (torn, "failed to restore"),
            (padded, "1 byte(s) left after the state"),
        ] {
            let bad = bz_state::Checkpoint::from_wire_bytes(&bad.to_wire_bytes()).unwrap();
            let err = tenant.restore(&bad).unwrap_err();
            assert!(err.contains(why), "{err}");
            assert_eq!(tenant.progress(), (240_000, false));
        }
        tenant.step_minutes(1);
        twin.step_minutes(1);
        assert_eq!(tenant.metrics_jsonl(), twin.metrics_jsonl());
    }

    #[test]
    fn admission_bound_sheds_and_releases() {
        let tenant = trial_tenant("t", 1, 1);
        let first = tenant.admit(2).expect("slot 1");
        let _second = tenant.admit(2).expect("slot 2");
        assert!(tenant.admit(2).is_none(), "third is shed");
        assert_eq!(tenant.shed.load(Ordering::Relaxed), 1);
        drop(first);
        assert!(tenant.admit(2).is_some(), "released slot re-admits");
    }

    #[test]
    fn registry_insert_get_remove_counts() {
        let registry = Registry::new();
        assert!(registry.is_empty());
        for i in 0..10 {
            registry
                .insert(trial_tenant(&format!("t-{i}"), 1, 1))
                .unwrap();
        }
        assert_eq!(registry.len(), 10);
        let clash = registry.insert(trial_tenant("t-3", 1, 1)).unwrap_err();
        assert_eq!(clash.status, 409);
        assert!(registry.get("t-3").is_some());
        assert!(registry.remove("t-3").is_some());
        assert!(registry.get("t-3").is_none());
        assert_eq!(registry.len(), 9);
        let names: Vec<String> = registry.all().iter().map(|t| t.name.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "all() is name-sorted");
    }

    #[test]
    fn chaos_and_mpc_tenants_build_from_bundled_scenarios() {
        let chaos =
            build_tenant("{\"name\":\"c\",\"scenario\":\"chaos\",\"bundled\":true}").unwrap();
        assert_eq!(chaos.scenario, "chaos");
        assert_eq!(chaos.total_minutes, 110);
        chaos.step_minutes(1);
        assert_eq!(chaos.progress(), (60_000, false));
        assert!(chaos.readback().is_none(), "chaos reports status only");

        let mpc = build_tenant(
            "{\"name\":\"m\",\"scenario\":\"mpc\",\"strategy\":\"reactive\",\"bundled\":true}",
        )
        .unwrap();
        assert_eq!(mpc.total_minutes, 270);
        mpc.step_minutes(1);
        let (lines, cursor) = mpc.telemetry_from(0);
        assert!(cursor > 0, "a stepped tenant has telemetry");
        assert!(!lines.is_empty());
    }

    #[test]
    fn ingest_is_telemetry_only() {
        let tenant = trial_tenant("t", 7, 2);
        tenant.step_minutes(1);
        assert_eq!(tenant.ingest("room.temp_c", 24.0), 60_000);
        assert_eq!(tenant.obs.snapshot().gauges["ingest.room.temp_c"], 24.0);
    }
}
