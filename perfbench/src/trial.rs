//! The `trial-batch` workload and the simulator-layer trace.
//!
//! The workload is the bundled afternoon trial built by
//! `bz_bench::throughput::trial_system_with_noise` with telemetry off: an
//! untimed same-seed warmup of a quarter of the run, then one long
//! fixed-length run timed minute by minute, checked against the warmup
//! where the warmup ended. The trace times every `BubbleZeroSystem::step_second` call
//! and, beside it, replays the traffic of the layers below — plant steps,
//! sensor reads, network sends and advances, event-queue drains and
//! supervisor validations — on benchmark-owned instances, so the
//! per-layer numbers are measured from this crate alone.

use std::time::Instant;

use bz_core::devices::{channels, DeviceRole};
use bz_core::supervisor::{SensorHealthSupervisor, SupervisorConfig};
use bz_core::system::BubbleZeroSystem;
use bz_simcore::{EventQueue, NoiseKernel, Rng, SimDuration, SimTime};
use bz_thermal::plant::ThermalPlant;
use bz_thermal::zone::SubspaceId;
use bz_wsn::adaptive::AdaptiveConfig;
use bz_wsn::channel::{Delivery, Network, NetworkConfig};
use bz_wsn::message::{DataType, Message, NodeId};

use crate::stats::{median, nanos, peak_rss_mb, Outcome, Pct};

/// Simulated seconds per requested wall second. The run length is fixed
/// by this constant and `--seconds`, never by how fast the code under
/// test is, so every commit simulates exactly the same span.
pub const SIM_SECONDS_PER_WALL_SECOND: u64 = 190_000;

/// Times the system is built to measure `setup_s`.
const SETUP_REPS: usize = 15;

/// The warmup runs this fraction of the timed run.
const WARMUP_DIVISOR: u64 = 4;

/// Builds the trial system the workload measures: noise kernel V2, the
/// scalar reference path off, telemetry off.
///
/// # Panics
///
/// Panics if the build enabled the scalar reference path or telemetry,
/// which would mean the environment leaked into the run.
#[must_use]
pub fn build(seed: u64) -> BubbleZeroSystem {
    let system = bz_bench::throughput::trial_system_with_noise(seed, NoiseKernel::V2);
    assert!(
        !system.config().plant.scalar_reference,
        "the scalar reference path must be off"
    );
    assert!(!system.obs().is_enabled(), "telemetry must be off");
    system
}

/// The simulated length of a run of `seconds` wall seconds, in whole
/// minutes.
#[must_use]
pub fn run_minutes(seconds: u64) -> u64 {
    (seconds * SIM_SECONDS_PER_WALL_SECOND / 60).max(1000)
}

/// CRC-64 of the system's checkpoint bytes.
fn state_crc(system: &BubbleZeroSystem) -> u64 {
    let mut w = bz_state::Writer::new();
    system.save_state(&mut w);
    bz_state::crc64::checksum(&w.into_bytes())
}

/// The exact simulated counts the trace reports.
fn counts(system: &BubbleZeroSystem) -> [(&'static str, f64, &'static str); 8] {
    let stats = system.network().stats();
    let reports = system.bt_device_reports();
    let tx: u64 = reports.iter().map(|r| r.transmissions).sum();
    let samples: u64 = reports.iter().map(|r| r.samples).sum();
    [
        ("wsn.offered", stats.offered as f64, "count"),
        ("wsn.delivered", stats.delivered as f64, "count"),
        ("wsn.collided", stats.collided as f64, "count"),
        ("wsn.busy_drops", stats.busy_drops as f64, "count"),
        ("wsn.backoffs", stats.backoffs as f64, "count"),
        (
            "wsn.tx_per_sample",
            tx as f64 / samples.max(1) as f64,
            "ratio",
        ),
        (
            "core.detections",
            system.supervisor().detections().len() as f64,
            "count",
        ),
        (
            "simcore.pending_events",
            system.pending_events() as f64,
            "count",
        ),
    ]
}

/// The workload. With `trace` the run also measures the simulator layers
/// and reports `bench.trace_overhead`.
#[must_use]
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let minutes = run_minutes(seconds);
    let warm_minutes = minutes / WARMUP_DIVISOR;

    let mut warmup = build(seed);
    warmup.run_seconds(warm_minutes * 60);
    let warm = (state_crc(&warmup), counts(&warmup));
    drop(warmup);

    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut system = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        system = Some(std::hint::black_box(build(seed)));
        builds.push(start.elapsed().as_secs_f64());
    }
    let mut system = system.expect("at least one build");
    out.put("setup_s", median(&builds), "s");

    // The timed run; at the warmup's length it pauses, untimed, to check
    // that it is exactly where the warmup was.
    let mut per_minute = Vec::with_capacity(minutes as usize);
    for minute in 0..minutes {
        if minute == warm_minutes && (state_crc(&system), counts(&system)) != warm {
            out.failed += 1;
            out.problem("timed run's checkpoint CRC or counts differ from the same-seed warmup");
        }
        let start = Instant::now();
        system.run_seconds(60);
        per_minute.push(nanos(start.elapsed()));
    }
    std::hint::black_box(system.now());
    out.attempted = minutes;
    let wall_s = per_minute.iter().sum::<u64>() as f64 / 1e9;
    let rate = (minutes * 60) as f64 / wall_s;
    out.put("sim_per_wall", rate, "sim-s/s");
    out.put_blocked_p50("step_p50_ms", &per_minute, 1e-3, "ms");
    out.put_pct("step_p99_ms", &per_minute, Pct::P99, 1e-3, "ms");
    out.put("served_rps", rate / 60.0, "req/s");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");

    if trace {
        let mut traced = build(seed);
        let layers = trace_sim(&mut traced, minutes * 60);
        if counts(&traced) != counts(&system) {
            out.problem("traced run's simulated counts differ from the untraced run");
        }
        layers.report(&mut out);
        out.put("bench.trace_overhead", layers.wall_s / wall_s, "ratio");
    }
    out
}

/// One battery or AC broadcast stream of the deployment, as the replays
/// see it: what it reads, where it sends, and how often.
#[derive(Debug, Clone, Copy)]
struct Stream {
    read: Read,
    data_type: DataType,
    channel: u16,
    node: NodeId,
    period_s: u64,
}

#[derive(Debug, Clone, Copy)]
enum Read {
    CeilingTemp(usize, usize),
    CeilingRh(usize, usize),
    RoomTemp(usize),
    RoomRh(usize),
    Co2(usize),
    Supply,
    LoopFlow(usize),
    Outlet(usize),
}

/// The deployment's stream table: 12 ceiling sensors (T and RH), 4 room
/// sensors (T and RH), 4 CO₂ sensors, and the 7 AC broadcasters, with the
/// trial's sampling and broadcast periods.
fn streams(system: &BubbleZeroSystem) -> Vec<Stream> {
    let period = |t: DataType| AdaptiveConfig::for_type(t).sampling_period.as_millis() / 1000;
    let ac_period = system.config().ac_period.as_millis() / 1000;
    let mut table = Vec::new();
    for k in 0..12 {
        let node = DeviceRole::CeilingSensor(k).node_id();
        let channel = channels::CEILING_BASE + k as u16;
        let (panel, local) = (k / 6, k % 6);
        for (read, data_type) in [
            (Read::CeilingTemp(panel, local), DataType::Temperature),
            (Read::CeilingRh(panel, local), DataType::Humidity),
        ] {
            table.push(Stream {
                read,
                data_type,
                channel,
                node,
                period_s: period(data_type),
            });
        }
    }
    for s in 0..4 {
        let node = DeviceRole::RoomSensor(s).node_id();
        let channel = channels::ROOM_BASE + s as u16;
        for (read, data_type) in [
            (Read::RoomTemp(s), DataType::Temperature),
            (Read::RoomRh(s), DataType::Humidity),
        ] {
            table.push(Stream {
                read,
                data_type,
                channel,
                node,
                period_s: period(data_type),
            });
        }
        table.push(Stream {
            read: Read::Co2(s),
            data_type: DataType::Co2,
            channel: channels::CO2_BASE + s as u16,
            node: DeviceRole::Co2Sensor(s).node_id(),
            period_s: period(DataType::Co2),
        });
    }
    table.push(Stream {
        read: Read::Supply,
        data_type: DataType::SupplyTemperature,
        channel: channels::SUPPLY_TEMP,
        node: DeviceRole::ControlC1(0).node_id(),
        period_s: ac_period,
    });
    for panel in 0..2 {
        table.push(Stream {
            read: Read::LoopFlow(panel),
            data_type: DataType::FlowRate,
            channel: panel as u16,
            node: DeviceRole::ControlC2(panel).node_id(),
            period_s: ac_period,
        });
    }
    for a in 0..4 {
        table.push(Stream {
            read: Read::Outlet(a),
            data_type: DataType::Temperature,
            channel: channels::OUTLET_BASE + a as u16,
            node: DeviceRole::ControlV2(a).node_id(),
            period_s: ac_period,
        });
    }
    for stream in &mut table {
        stream.period_s = stream.period_s.max(1);
    }
    table
}

fn read(plant: &mut ThermalPlant, what: Read) -> f64 {
    match what {
        Read::CeilingTemp(p, k) => plant.read_ceiling_sensor_temp(p, k).get(),
        Read::CeilingRh(p, k) => plant.read_ceiling_sensor_rh(p, k).get(),
        Read::RoomTemp(s) => plant.read_room_temp(SubspaceId::from_index(s)).get(),
        Read::RoomRh(s) => plant.read_room_rh(SubspaceId::from_index(s)).get(),
        Read::Co2(s) => plant.read_co2(SubspaceId::from_index(s)).get(),
        Read::Supply => plant.read_supply_temp().get(),
        Read::LoopFlow(p) => plant.read_mixed_flow(p),
        Read::Outlet(a) => plant.read_airbox_outlet(a).0.get(),
    }
}

/// Wall time spent in each simulator layer over one traced run.
#[derive(Debug, Default)]
pub struct SimLayers {
    /// Wall seconds of the whole traced run (system plus replays).
    pub wall_s: f64,
    step_all: Vec<u64>,
    step_control: Vec<u64>,
    step_plain: Vec<u64>,
    plant_ns: u64,
    plant_calls: u64,
    read_ns: u64,
    reads: u64,
    wsn_ns: u64,
    event_ns: u64,
    validate_ns: u64,
    validated: u64,
    seconds: u64,
    counts: Vec<(&'static str, f64, &'static str)>,
}

impl SimLayers {
    /// Writes the simulator-layer metrics.
    pub fn report(&self, out: &mut Outcome) {
        let p50_ns = |samples: &[u64]| {
            crate::stats::percentile_us(samples, Pct::P50).map_or(f64::NAN, |us| us * 1e3)
        };
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        out.put("core.step_second_ns", p50_ns(&self.step_all), "ns");
        out.put("core.control_second_ns", p50_ns(&self.step_control), "ns");
        out.put("core.plain_second_ns", p50_ns(&self.step_plain), "ns");
        out.put(
            "thermal.plant_step_ns",
            per(self.plant_ns, self.plant_calls),
            "ns",
        );
        out.put(
            "thermal.sensor_read_ns",
            per(self.read_ns, self.reads),
            "ns",
        );
        out.put("wsn.advance_ns", per(self.wsn_ns, self.seconds), "ns");
        out.put(
            "simcore.event_drain_ns",
            per(self.event_ns, self.seconds),
            "ns",
        );
        out.put(
            "core.supervisor_validate_ns",
            per(self.validate_ns, self.validated),
            "ns",
        );
        let step_total: u64 = self.step_all.iter().sum();
        let replayed =
            self.plant_ns + self.read_ns + self.wsn_ns + self.event_ns + self.validate_ns;
        out.put(
            "sim.unattributed_share",
            1.0 - replayed as f64 / step_total.max(1) as f64,
            "ratio",
        );
        for (name, value, unit) in &self.counts {
            out.put(*name, *value, unit);
        }
    }
}

/// Steps `system` for `seconds` simulated seconds, timing every
/// `step_second` call and replaying each layer's traffic beside it.
///
/// The replays are driven by the deployment's stream table: each second
/// the streams due read their sensor from a replay plant that receives the
/// system's own actuator commands; a share of the readings matching the
/// system's offered frame rate (measured on a short untimed probe run) is
/// sent through a replay network; and every frame that network delivers
/// passes a replay supervisor. A replay event queue carries one pending
/// event per stream, drained and rescheduled each second.
#[must_use]
pub fn trace_sim(system: &mut BubbleZeroSystem, seconds: u64) -> SimLayers {
    let table = streams(system);
    let offered_per_s = {
        let mut probe = build(system.config().seed);
        probe.run_seconds(600);
        probe.network().stats().offered as f64 / 600.0
    };
    let mut plant = ThermalPlant::new(system.config().plant.clone());
    let mut network = Network::new(
        NetworkConfig::telosb(),
        Rng::seed_from(system.config().seed),
    );
    let mut supervisor = SensorHealthSupervisor::new(SupervisorConfig::default());
    let mut queue = EventQueue::new();
    for i in 0..table.len() {
        queue.schedule(SimTime::from_millis(53 * i as u64), i);
    }
    let mut due = Vec::new();
    let mut deliveries: Vec<Delivery> = Vec::new();
    let mut values = Vec::with_capacity(table.len());
    let control_period = system.config().control_period;
    let mut next_control = system.now();
    let mut layers = SimLayers::default();
    let mut send_credit = 0.0;

    let run_start = Instant::now();
    for _ in 0..seconds {
        let start = Instant::now();
        system.step_second();
        let step_ns = nanos(start.elapsed());
        let now = system.now();
        layers.step_all.push(step_ns);
        if now >= next_control {
            next_control = now + control_period;
            layers.step_control.push(step_ns);
        } else {
            layers.step_plain.push(step_ns);
        }

        // Event queue: drain what is due before `now`, reschedule it.
        let deadline = SimTime::from_millis(now.as_millis() - 1);
        let start = Instant::now();
        due.clear();
        queue.drain_due_into(deadline, &mut due);
        for &(at, i) in &due {
            let period = SimDuration::from_secs(table[i].period_s);
            queue.schedule(at + period, i);
        }
        layers.event_ns += nanos(start.elapsed());

        // Sensor reads of the streams that fired.
        let start = Instant::now();
        values.clear();
        for &(at, i) in &due {
            values.push((at, i, read(&mut plant, table[i].read)));
        }
        layers.read_ns += nanos(start.elapsed());
        layers.reads += due.len() as u64;

        // Network: send the trial's share of the readings, then advance.
        send_credit += offered_per_s;
        let start = Instant::now();
        for &(at, i, value) in &values {
            if send_credit < 1.0 {
                break;
            }
            send_credit -= 1.0;
            let s = table[i];
            network.send(
                at,
                Message::on_channel(s.node, s.data_type, s.channel, value, at),
            );
        }
        deliveries.clear();
        network.advance_into(now, &mut deliveries);
        let _ = network.take_failures();
        layers.wsn_ns += nanos(start.elapsed());
        send_credit = send_credit.min(offered_per_s + 1.0);

        // Supervisor: validate every delivered frame.
        let start = Instant::now();
        for delivery in &deliveries {
            let m = delivery.message;
            let _ = supervisor.validate(
                delivery.at.as_secs_f64(),
                m.data_type(),
                m.channel(),
                m.value(),
            );
        }
        layers.validate_ns += nanos(start.elapsed());
        layers.validated += deliveries.len() as u64;

        // Plant: one second under the system's own commands.
        let start = Instant::now();
        plant.step(SimDuration::from_secs(1), system.commands());
        layers.plant_ns += nanos(start.elapsed());
        layers.plant_calls += 1;
        layers.seconds += 1;
    }
    layers.wall_s = run_start.elapsed().as_secs_f64();
    std::hint::black_box((plant.read_supply_temp(), supervisor.detections().len()));
    layers.counts = counts(system).to_vec();
    layers
}
